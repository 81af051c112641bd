"""Test oracle for the training layout: the element-kind signature of a built
sequence, the signature a sample should give, and the inverse of
`build_training_sequence`."""

from seglang.sequence import FeatureBlock, InterleavedSequence, SegSlot, TextToken


def kinds(seq: InterleavedSequence) -> list[str]:
    """Element-kind signature, for structural assertions."""
    out = []
    for e in seq.elements:
        if isinstance(e, FeatureBlock):
            out.append(f"feat:{e.source}")
        elif isinstance(e, SegSlot):
            out.append(f"seg:{e.index}")
        else:
            out.append("text")
    return out


def expected_kinds(sample, ilvc):
    """The signature `build_training_sequence` should give `sample`, built
    from scratch."""
    out = ["feat:global"] + ["text"] * len(sample.instruction)
    for i in range(1, len(sample.regions) + 1):
        out.append(f"seg:{i}")
        if ilvc:
            out += ["text", f"feat:local:{i}", "text"]
            out += ["text"] * len(sample.regions[i - 1][1])
            out += ["text"]
    out += ["text"] * len(sample.response)
    out += ["text"]  # end token
    return out


def parse_training_sequence(seq: InterleavedSequence) -> dict:
    """Invert build_training_sequence on a well-formed sequence.

    Returns {"instruction", "n", "descriptions", "response"} with token-id
    lists; raises ValueError on any structural violation. With at least one
    region the seg-slot run anchors the instruction/response boundary and
    the split is exact. A zero-region sequence stores the two runs
    back-to-back with no separator, so only their concatenation is
    recoverable; it is returned as "instruction".
    """
    vocab = seq.vocab
    elems = seq.elements
    if not elems or not isinstance(elems[0], FeatureBlock) \
            or elems[0].source != "global":
        raise ValueError("sequence must start with the global feature block")
    i = 1
    instruction: list[int] = []
    while i < len(elems) and isinstance(elems[i], TextToken) \
            and elems[i].token_id not in (vocab.eos,):
        instruction.append(elems[i].token_id)
        i += 1
    descriptions: list[list[int]] = []
    n = 0
    while i < len(elems) and isinstance(elems[i], SegSlot):
        n += 1
        if elems[i].index != n:
            raise ValueError(f"seg slot index {elems[i].index}, expected {n}")
        i += 1
        if i < len(elems) and isinstance(elems[i], TextToken) \
                and elems[i].token_id == vocab.image_id:
            i += 1
            if not (i < len(elems) and isinstance(elems[i], FeatureBlock)
                    and elems[i].source == f"local:{n}"):
                raise ValueError(f"region {n}: marker not followed by local features")
            i += 1
            if not (i < len(elems) and isinstance(elems[i], TextToken)
                    and elems[i].token_id == vocab.p_open):
                raise ValueError(f"region {n}: missing opening bracket")
            i += 1
            desc: list[int] = []
            while i < len(elems) and isinstance(elems[i], TextToken) \
                    and elems[i].token_id != vocab.p_close:
                desc.append(elems[i].token_id)
                i += 1
            if i >= len(elems) or not isinstance(elems[i], TextToken):
                raise ValueError(f"region {n}: unterminated description")
            if not desc:
                raise ValueError(f"region {n}: empty description")
            descriptions.append(desc)
            i += 1
    response: list[int] = []
    while i < len(elems) and isinstance(elems[i], TextToken) \
            and elems[i].token_id != vocab.eos:
        response.append(elems[i].token_id)
        i += 1
    if i != len(elems) - 1 or not isinstance(elems[i], TextToken) \
            or elems[i].token_id != vocab.eos:
        raise ValueError("sequence must end with a single end token")
    if descriptions and len(descriptions) != n:
        raise ValueError("mixed interleaved and bare seg slots")
    return {"instruction": instruction, "n": n,
            "descriptions": descriptions, "response": response}
