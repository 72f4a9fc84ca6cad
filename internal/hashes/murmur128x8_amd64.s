#include "textflag.h"
#include "lanes_amd64.h"

// MurmurHash3 x64-128 over eight items at once, one item per 64-bit lane of
// a ZMM register: Z0 holds h1 and Z1 h2 of all eight. See kernels_amd64.go.

// MIXK is a key word's mix, k = rotl(k·a, r)·b, on every lane.
#define MIXK(k, a, r, b) \
	VPMULLQ a, k, k; \
	VPROLQ  $r, k, k; \
	VPMULLQ b, k, k

// FMIX64 is fmix64 on every lane of h, by the multipliers in Z6 and Z7; t is
// scratch.
#define FMIX64(h, t) \
	VPSRLQ  $33, h, t; \
	VPXORQ  t, h, h; \
	VPMULLQ Z6, h, h; \
	VPSRLQ  $33, h, t; \
	VPXORQ  t, h, h; \
	VPMULLQ Z7, h, h; \
	VPSRLQ  $33, h, t; \
	VPXORQ  t, h, h

// func murmur128x8(seed uint64, items [][]byte, short *[8]uint64, shift uint64, shards *[8]uint16, digests *[8]PlacementDigest)
TEXT ·murmur128x8(SB), NOSPLIT, $0-64
	VPBROADCASTQ seed+0(FP), Z0
	VMOVDQA64    Z0, Z1

	// Z4: each lane's data pointer, Z15: its length, Z5: its count of whole
	// 16-byte blocks.
	MOVQ items_base+8(FP), BX
	LANE_HEADERS(Z4, Z15, Z13)
	VPSRLQ $4, Z15, Z5

	MOVQ         $0x87c37b91114253d5, DX
	VPBROADCASTQ DX, Z6
	MOVQ         $0x4cf5ad432745937f, DX
	VPBROADCASTQ DX, Z7

	// The tail words, mixed and with the length folded in ahead of the
	// body, which they do not depend on: Z14 for h1, Z15 for h2. A lane of
	// eight bytes or more (K3) loads them as murmurTail does: with s the
	// tail's bits, 8·(len mod 16), and full = −(s >> 6), k1 is the word at
	// len − 8 − ((s − 64) & full)/8 shifted right by (64 − s) &^ full and
	// k2 the word ending at the last byte shifted right by 128 − s
	// (VPSRLVQ, like Go's >>, leaves zero from a count of 64 on). A shorter
	// lane takes k1 from short and k2 = 0.
	XORQ         SI, SI
	MOVQ         short+32(FP), CX
	VMOVDQU64    (CX), Z14
	VPXORQ       Z3, Z3, Z3
	MOVQ         $8, DX
	VPBROADCASTQ DX, Z10
	VPCMPUQ      $5, Z10, Z15, K3
	MOVQ         $15, DX
	VPBROADCASTQ DX, Z11
	VPANDQ       Z11, Z15, Z12
	VPSLLQ       $3, Z12, Z12
	VPSRLQ       $6, Z12, Z13
	VPSUBQ       Z13, Z3, Z13
	MOVQ         $64, DX
	VPBROADCASTQ DX, Z2

	// Z8: the address of the word ending at the last byte, Z9: of k1's.
	VPADDQ     Z4, Z15, Z8
	VPSUBQ     Z10, Z8, Z8
	VPSUBQ     Z2, Z12, Z9
	VPANDQ     Z13, Z9, Z9
	VPSRLQ     $3, Z9, Z9
	VPSUBQ     Z9, Z8, Z9
	KMOVW      K3, K2
	VPGATHERQQ 0(SI)(Z9*1), K2, Z14
	KMOVW      K3, K2
	VPGATHERQQ 0(SI)(Z8*1), K2, Z3
	VPSUBQ     Z12, Z2, Z9
	VPANDNQ    Z9, Z13, Z9
	VPSRLVQ    Z9, Z14, K3, Z14
	VPADDQ     Z2, Z2, Z9
	VPSUBQ     Z12, Z9, Z9
	VPSRLVQ    Z9, Z3, K3, Z3

	MIXK(Z14, Z6, 31, Z7)
	MIXK(Z3, Z7, 33, Z6)
	VPXORQ Z15, Z14, Z14
	VPXORQ Z3, Z15, Z15

	MOVQ         $16, DX
	VPBROADCASTQ DX, Z8
	MOVQ         $1, DX
	VPBROADCASTQ DX, Z9
	MOVQ         $0x52dce729, DX
	VPBROADCASTQ DX, Z11
	MOVQ         $0x38495ab5, DX
	VPBROADCASTQ DX, Z12

	// Body: while some lane has a whole block left, gather its two words
	// (k1, k2) in every such lane (K1) and mix them into h1 and h2 there.
	// The k mixes run on every lane; only the lanes in K1 keep the result.
blocks:
	VPTESTMQ Z5, Z5, K1
	KORTESTW K1, K1
	JZ       final
	KMOVW    K1, K2
	VPGATHERQQ 0(SI)(Z4*1), K2, Z2
	KMOVW    K1, K2
	VPGATHERQQ 8(SI)(Z4*1), K2, Z3

	MIXK(Z2, Z6, 31, Z7)
	VPXORQ Z2, Z0, K1, Z0
	VPROLQ $27, Z0, K1, Z0
	VPADDQ Z1, Z0, K1, Z0
	VPSLLQ $2, Z0, Z10
	VPADDQ Z10, Z0, K1, Z0
	VPADDQ Z11, Z0, K1, Z0

	MIXK(Z3, Z7, 33, Z6)
	VPXORQ Z3, Z1, K1, Z1
	VPROLQ $31, Z1, K1, Z1
	VPADDQ Z0, Z1, K1, Z1
	VPSLLQ $2, Z1, Z10
	VPADDQ Z10, Z1, K1, Z1
	VPADDQ Z12, Z1, K1, Z1

	VPADDQ Z8, Z4, Z4
	VPSUBQ Z9, Z5, K1, Z5
	JMP    blocks

final:
	VPXORQ Z14, Z0, Z0
	VPXORQ Z15, Z1, Z1
	VPADDQ Z1, Z0, Z0
	VPADDQ Z0, Z1, Z1
	MOVQ         $0xff51afd7ed558ccd, DX
	VPBROADCASTQ DX, Z6
	MOVQ         $0xc4ceb9fe1a85ec53, DX
	VPBROADCASTQ DX, Z7
	FMIX64(Z0, Z10)
	FMIX64(Z1, Z11)
	VPADDQ Z1, Z0, Z0
	VPADDQ Z0, Z1, Z1

	LANES_OUT(Z0, Z1, Z13, Z14)

	// Only Z0–Z15 were used, so this clears every upper half written.
	VZEROUPPER
	RET
