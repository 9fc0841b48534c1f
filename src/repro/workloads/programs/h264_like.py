"""h264ref stand-in: unrolled 4x4 integer block transforms over a frame.

Signature behaviour: heavily unrolled straight-line arithmetic over small
blocks, a large-ish hot footprint from many distinct block variants, and
mode dispatch through a small function-pointer table (indirect calls).
"""

from __future__ import annotations

from ...binary import BinaryImage
from ..builder import jump_table
from ..kernels import alloc_array, gen_block_transform, gen_hot_loop, gen_stream_sum, init_array_fn
from .common import begin_program, driver, scaled

NAME = "h264ref"

_BLOCKS = 48
_FRAME_WORDS = 16 * _BLOCKS
_MODES = 8


def build(scale: float = 1.0) -> BinaryImage:
    b = begin_program(NAME)
    blocks = scaled(_BLOCKS, scale, 4)
    frame_words = 16 * blocks

    alloc_array(b, "frame", frame_words)
    init_array_fn(b, "init_frame", "frame", frame_words)

    transforms = []
    for blk in range(blocks):
        fname = "xform_%d" % blk
        gen_block_transform(b, fname, "frame", 16 * blk, rounds=1)
        transforms.append(fname)

    # Mode-decision dispatch: pick a transform via a function table
    # (below scale 0.17 it holds fewer than ``_MODES`` entries).
    modes = transforms[:_MODES]
    jump_table(b, "mode_table", modes)
    b.func("mode_decide")
    for mode in range(len(modes)):
        b.emits("movi edx, mode_table", "calli [edx+%d]" % (4 * mode))
    b.endfunc()

    gen_stream_sum(b, "frame_sum", "frame", frame_words)

    # Interpolation/SAD inner loop: the hot half of the encoder.
    gen_hot_loop(b, "sad_loop", iterations=500, variant=3)

    def body():
        for fname in transforms:
            b.emit("call %s" % fname)
        b.emits("call mode_decide", "call sad_loop", "call frame_sum")

    driver(b, iterations=scaled(4, scale), init_calls=["init_frame"], body=body)
    return b.image()
