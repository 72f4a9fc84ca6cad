// Shared by the eight-lane kernels (sip128x8_amd64.s, murmur128x8_amd64.s):
// both take items [][]byte at 8(FP) and end by writing shift, shards and
// digests from 40(FP) on, so the way items come in and results go out is
// written once.

// LANE_HEADERS gathers, from the eight slice headers at BX (24 bytes apart),
// each item's data pointer into ptrs and its length into lens; off is
// scratch.
#define LANE_HEADERS(ptrs, lens, off) \
	VMOVDQU64  laneHeaderOffsets<>(SB), off; \
	KXNORW     K2, K2, K2; \
	VPGATHERQQ 0(BX)(off*1), K2, ptrs; \
	KXNORW     K2, K2, K2; \
	VPGATHERQQ 8(BX)(off*1), K2, lens

// LANES_OUT writes w0 >> shift, narrowed to 16 bits, to shards and the
// (w0, w1) pairs in lane order to digests; t0 and t1 are scratch.
#define LANES_OUT(w0, w1, t0, t1) \
	VPBROADCASTQ shift+40(FP), t0; \
	VPSRLVQ      t0, w0, t0; \
	MOVQ         shards+48(FP), DI; \
	VPMOVQW      t0, (DI); \
	MOVQ         digests+56(FP), DI; \
	VMOVDQU64    laneInterleave<>+0(SB), t0; \
	VMOVDQU64    laneInterleave<>+64(SB), t1; \
	VPERMI2Q     w1, w0, t0; \
	VPERMI2Q     w1, w0, t1; \
	VMOVDQU64    t0, 0(DI); \
	VMOVDQU64    t1, 64(DI)

DATA laneHeaderOffsets<>+0x00(SB)/8, $0
DATA laneHeaderOffsets<>+0x08(SB)/8, $24
DATA laneHeaderOffsets<>+0x10(SB)/8, $48
DATA laneHeaderOffsets<>+0x18(SB)/8, $72
DATA laneHeaderOffsets<>+0x20(SB)/8, $96
DATA laneHeaderOffsets<>+0x28(SB)/8, $120
DATA laneHeaderOffsets<>+0x30(SB)/8, $144
DATA laneHeaderOffsets<>+0x38(SB)/8, $168
GLOBL laneHeaderOffsets<>(SB), RODATA|NOPTR, $64

// VPERMI2Q indexes: below 8 picks lane i of w0, from 8 lane i−8 of w1.
DATA laneInterleave<>+0x00(SB)/8, $0
DATA laneInterleave<>+0x08(SB)/8, $8
DATA laneInterleave<>+0x10(SB)/8, $1
DATA laneInterleave<>+0x18(SB)/8, $9
DATA laneInterleave<>+0x20(SB)/8, $2
DATA laneInterleave<>+0x28(SB)/8, $10
DATA laneInterleave<>+0x30(SB)/8, $3
DATA laneInterleave<>+0x38(SB)/8, $11
DATA laneInterleave<>+0x40(SB)/8, $4
DATA laneInterleave<>+0x48(SB)/8, $12
DATA laneInterleave<>+0x50(SB)/8, $5
DATA laneInterleave<>+0x58(SB)/8, $13
DATA laneInterleave<>+0x60(SB)/8, $6
DATA laneInterleave<>+0x68(SB)/8, $14
DATA laneInterleave<>+0x70(SB)/8, $7
DATA laneInterleave<>+0x78(SB)/8, $15
GLOBL laneInterleave<>(SB), RODATA|NOPTR, $128
