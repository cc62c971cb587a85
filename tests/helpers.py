"""Helpers shared by the test modules."""

from ost.tsvio import atomic_write_text, table_text


def write_ground_truth(path, events):
    """MAPS-style ground-truth TSV (OnsetTime, OffsetTime, MidiPitch) of
    NoteEvents, in the number format the program writes."""
    rows = [(ev.onset_seconds, ev.offset_seconds, ev.midi_pitch) for ev in events]
    atomic_write_text(path, table_text(("OnsetTime", "OffsetTime", "MidiPitch"),
                                       rows))
