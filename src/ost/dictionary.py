"""Note dictionaries: pitch fundamentals and harmonic Gaussian templates."""

from dataclasses import dataclass

import numpy as np

from .frontend import _check_finite_non_negative

DEFAULT_KERNEL_WIDTH_BINS = 2.0  # Gaussian std in bins of the grid spacing
DEFAULT_DAMPING = 0.3
DEFAULT_N_PARTIALS = 8
MAX_KERNEL_WIDTH = np.sqrt(np.finfo(np.float64).max)  # a wider one's variance overflows
SMALLEST_NORMAL = np.finfo(np.float64).tiny  # smaller template/kernel entries are 0


@dataclass(frozen=True, eq=False)
class HarmonicTemplateParams:
    """Shape of a synthesized harmonic template.

    kernel_width : Gaussian std in Hz
    damping      : exponential decay rate per partial index
    n_partials   : number of harmonics placed at p * fundamental
    """

    kernel_width: float
    damping: float = DEFAULT_DAMPING
    n_partials: int = DEFAULT_N_PARTIALS

    def __post_init__(self):
        if not 0 < self.kernel_width <= MAX_KERNEL_WIDTH:
            raise ValueError(f"kernel_width must be positive and at most "
                             f"{MAX_KERNEL_WIDTH:.4g} Hz, got {self.kernel_width:g} Hz")
        if not 0 <= self.damping < np.inf:
            raise ValueError("damping must be finite and non-negative")
        if self.n_partials < 1:
            raise ValueError("n_partials must be >= 1")


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Column-stochastic harmonic template matrix plus its fundamental
    frequencies. A Dirac dictionary needs no container: its fundamentals
    alone set the reduced cost the OST solvers read."""

    fundamentals: np.ndarray
    templates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fundamentals",
                           np.asarray(self.fundamentals, dtype=np.float64))
        object.__setattr__(self, "templates",
                           np.asarray(self.templates, dtype=np.float64))
        if self.fundamentals.ndim != 1 or self.fundamentals.size == 0:
            raise ValueError("fundamentals must be a non-empty vector")
        if np.any(self.fundamentals <= 0):
            raise ValueError("fundamentals must be positive")
        if len(np.unique(self.fundamentals)) != self.fundamentals.size:
            raise ValueError("fundamentals must be distinct")
        if self.templates.ndim != 2 or self.templates.shape[1] != self.fundamentals.size:
            raise ValueError("template count must match fundamentals")
        _check_finite_non_negative(self.templates, "templates")
        sums = self.templates.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError("template columns must sum to 1")

    @property
    def n_templates(self) -> int:
        return self.fundamentals.size


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


def make_harmonic_dictionary(freqs: np.ndarray, fundamentals,
                             params: HarmonicTemplateParams) -> Dictionary:
    """Build Gaussian harmonic-comb templates on a bin grid.

    Column k places n_partials Gaussian bumps at p * nu_k with amplitudes
    exp(-p * damping), evaluated on the discrete grid, partials beyond the
    top bin dropped, then l1-normalized. Entries below the smallest normal
    double are stored as 0: subnormal operands slow BLAS products 2x or more.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    fundamentals = np.atleast_1d(np.asarray(fundamentals, dtype=np.float64))
    if np.any(fundamentals <= 0) or np.any(fundamentals > freqs[-1]):
        raise ValueError("fundamentals must lie within (0, max(freqs)]")

    weights = damped_weights(params.damping, params.n_partials)
    templates = np.empty((freqs.size, fundamentals.size))
    for k, nu in enumerate(fundamentals):
        col = harmonic_column(freqs, nu, params.kernel_width, weights)
        total = col.sum()
        if total <= 0:
            raise ValueError(f"template at {nu} Hz has no mass on the grid")
        templates[:, k] = col / total
    templates[templates < SMALLEST_NORMAL] = 0.0
    return Dictionary(fundamentals=fundamentals, templates=templates)

