"""Reference interpreter for the generation protocol.

A deliberately separate, model-free reading of the decoding rules: walk a
token stream, track only whether a current mask exists and whether decoded
masks are nonempty (a single boolean parameter), and emit the event kinds
the engine is required to produce. Engine traces are checked against this
interpreter event-for-event; the two implementations share no code.
"""

from __future__ import annotations


def reference_events(script: list[int], seg_id: int, image_id: int,
                     eos_id: int, ilvc_enabled: bool,
                     masks_decode_nonempty: bool, prefix_rows: int = 0,
                     max_seq: int | None = None, crop_rows: int = 0) -> list[tuple]:
    """Expected (kind, ...) event list for a scripted token stream.

    Events: ("TEXT", token) | ("SEG",) | ("CROP",) | ("EOS",)
    | ("ERROR", reason). The stream ends at EOS, at a protocol error, or
    when tokens run out (truncation). Given `max_seq`, a token whose rows do
    not fit ends the stream unemitted: the context starts at `prefix_rows`,
    a text or seg token takes one row and a crop one plus `crop_rows`.
    """
    events: list[tuple] = []
    have_mask = False
    rows = prefix_rows
    for token in script:
        token = int(token)
        if token == eos_id:
            events.append(("EOS",))
            break
        crop = token == image_id and ilvc_enabled
        if crop and not have_mask:
            events.append(("ERROR", "m_current_null"))
            break
        if crop and not masks_decode_nonempty:
            events.append(("ERROR", "empty_mask"))
            break
        rows += 1 + (crop_rows if crop else 0)
        if max_seq is not None and rows > max_seq:
            break
        if token == seg_id:
            events.append(("SEG",))
            have_mask = True
        else:
            events.append(("CROP",) if crop else ("TEXT", token))
    return events


def project_trace(trace: list[dict]) -> list[tuple]:
    """Engine trace -> the interpreter's event tuples, for comparison."""
    events: list[tuple] = []
    for rec in trace:
        kind = rec["event"]
        if kind == "TEXT":
            events.append(("TEXT", rec["token"]))
        elif kind == "SEG":
            events.append(("SEG",))
        elif kind == "CROP":
            events.append(("CROP",))
        elif kind == "EOS":
            events.append(("EOS",))
        elif kind == "ERROR":
            events.append(("ERROR", rec["reason"]))
        else:
            raise ValueError(f"unknown trace event {kind!r}")
    return events
