"""Note dictionaries: pitch fundamentals and harmonic Gaussian templates.

A Dirac dictionary is its fundamentals, which set the OST solvers' reduced
cost. The PLCA and exact-LP baselines read an M x K template matrix whose
column k is the l1-normalized harmonic comb of note k on an M-bin grid.
"""

import numpy as np

from .frontend import _check_finite, _check_finite_non_negative

DEFAULT_KERNEL_WIDTH_BINS = 2.0  # Gaussian std in bins of the grid spacing
DEFAULT_DAMPING = 0.3
DEFAULT_N_PARTIALS = 8
# More partials than MIDI 0 has below a 192 kHz file's Nyquist frequency
# (about 11,700); the weights of every requested partial are allocated before
# those above the top bin are dropped.
MAX_PARTIALS = 2 ** 16
MAX_KERNEL_WIDTH = np.sqrt(np.finfo(np.float64).max)  # a wider one's variance overflows
SMALLEST_NORMAL = np.finfo(np.float64).tiny  # smaller template/kernel entries are 0


def _check_comb(kernel_width: float, damping: float, n_partials: int):
    """The settings of a harmonic comb: a Gaussian std in Hz, a decay rate
    per partial index and a partial count. ValueError names the first one
    out of range."""
    if not 0 < kernel_width <= MAX_KERNEL_WIDTH:
        raise ValueError(f"kernel_width must be positive and at most "
                         f"{MAX_KERNEL_WIDTH:.4g} Hz, got {kernel_width:g} Hz")
    if not 0 <= damping < np.inf:
        raise ValueError("damping must be finite and non-negative")
    if not 1 <= n_partials <= MAX_PARTIALS:
        raise ValueError(f"n_partials must be >= 1 and <= {MAX_PARTIALS}, "
                         f"got {n_partials}")


def _check_templates(templates, m: int) -> np.ndarray:
    """`templates` as a float64 matrix of m rows and at least one column,
    its entries finite and non-negative, its columns summing to 1 (1e-12)."""
    templates = np.asarray(templates, dtype=np.float64)
    if templates.ndim != 2 or templates.shape[0] != m or templates.shape[1] == 0:
        raise ValueError(f"templates must be a matrix of {m} rows (one per "
                         f"frequency bin) and at least one column")
    _check_finite_non_negative(templates, "templates")
    if np.any(np.abs(templates.sum(axis=0) - 1.0) > 1e-12):
        raise ValueError("template columns must sum to 1")
    return templates


def midi_to_freq(midi: int) -> float:
    """Fundamental frequency in Hz of a MIDI pitch (A4 = 69 = 440 Hz)."""
    if not 0 <= midi <= 127:
        raise ValueError(f"midi pitch {midi} out of range [0, 127]")
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def midi_range_fundamentals(midi_low: int, midi_high: int) -> np.ndarray:
    """Chromatic fundamentals midi_low..midi_high inclusive."""
    if midi_high < midi_low:
        raise ValueError("midi_high must be >= midi_low")
    return np.array([midi_to_freq(m) for m in range(midi_low, midi_high + 1)])


def damped_weights(damping: float, n_partials: int) -> np.ndarray:
    """Amplitudes exp(-p * damping) of partials p = 1..n_partials; a product
    p * damping that overflows gives the limit, amplitude 0."""
    with np.errstate(over="ignore"):
        return np.exp(-damping * np.arange(1, n_partials + 1))


def harmonic_column(freqs: np.ndarray, fundamental: float, kernel_width: float,
                    weights: np.ndarray) -> np.ndarray:
    """One unnormalized harmonic comb: sum of Gaussian bumps at p*fundamental
    (p = 1..len(weights)) with the given per-partial weights, partials above
    the grid's top frequency dropped. A width whose variance underflows to 0
    gives each bump's limit: 1 on a bin at its center, 0 elsewhere. An
    exponent that overflows to -inf gives 0."""
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.size == 0:
        raise ValueError("freqs must be a non-empty grid")
    col = np.zeros_like(freqs)
    two_var = 2.0 * kernel_width ** 2
    with np.errstate(over="ignore"):
        for p, w in enumerate(weights, start=1):
            center = p * fundamental
            if center > freqs[-1]:
                break
            if two_var > 0:
                col += w * np.exp(-((freqs - center) ** 2) / two_var)
            else:
                col += w * (freqs == center)
    return col


def make_harmonic_dictionary(freqs: np.ndarray, fundamentals, kernel_width: float,
                             damping: float = DEFAULT_DAMPING,
                             n_partials: int = DEFAULT_N_PARTIALS) -> np.ndarray:
    """The M x K template matrix of Gaussian harmonic combs on a bin grid.

    Column k places n_partials Gaussian bumps of std kernel_width Hz at
    p * nu_k with amplitudes exp(-p * damping), evaluated on the discrete
    grid, partials beyond the top bin dropped, then l1-normalized. Entries
    below the smallest normal double are stored as 0: subnormal operands
    slow BLAS products 2x or more.
    """
    _check_comb(kernel_width, damping, n_partials)
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.size == 0:
        raise ValueError("freqs must be a non-empty grid")
    _check_finite(freqs, "freqs")
    fundamentals = np.atleast_1d(np.asarray(fundamentals, dtype=np.float64))
    if fundamentals.ndim != 1 or fundamentals.size == 0:
        raise ValueError("fundamentals must be a non-empty vector")
    if not (np.all(fundamentals > 0) and np.all(fundamentals <= freqs[-1])):
        raise ValueError("fundamentals must lie within (0, max(freqs)]")

    weights = damped_weights(damping, n_partials)
    templates = np.empty((freqs.size, fundamentals.size))
    for k, nu in enumerate(fundamentals):
        col = harmonic_column(freqs, nu, kernel_width, weights)
        total = col.sum()
        if total <= 0:
            raise ValueError(f"template at {nu} Hz has no mass on the grid")
        templates[:, k] = col / total
    templates[templates < SMALLEST_NORMAL] = 0.0
    return templates
