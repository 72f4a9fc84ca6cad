#include "textflag.h"
#include "lanes_amd64.h"

// SipHash-2-4-128 over eight items at once, one item per 64-bit lane of a
// ZMM register: Z0–Z3 hold v0–v3 of all eight. See kernels_amd64.go.

// SIPROUND is one SipRound on every lane.
#define SIPROUND \
	VPADDQ Z1, Z0, Z0; \
	VPROLQ $13, Z1, Z1; \
	VPXORQ Z0, Z1, Z1; \
	VPROLQ $32, Z0, Z0; \
	VPADDQ Z3, Z2, Z2; \
	VPROLQ $16, Z3, Z3; \
	VPXORQ Z2, Z3, Z3; \
	VPADDQ Z3, Z0, Z0; \
	VPROLQ $21, Z3, Z3; \
	VPXORQ Z0, Z3, Z3; \
	VPADDQ Z1, Z2, Z2; \
	VPROLQ $17, Z1, Z1; \
	VPXORQ Z2, Z1, Z1; \
	VPROLQ $32, Z2, Z2

// SIPROUNDK1 is one SipRound on the lanes set in K1; the others keep their
// state.
#define SIPROUNDK1 \
	VPADDQ Z1, Z0, K1, Z0; \
	VPROLQ $13, Z1, K1, Z1; \
	VPXORQ Z0, Z1, K1, Z1; \
	VPROLQ $32, Z0, K1, Z0; \
	VPADDQ Z3, Z2, K1, Z2; \
	VPROLQ $16, Z3, K1, Z3; \
	VPXORQ Z2, Z3, K1, Z3; \
	VPADDQ Z3, Z0, K1, Z0; \
	VPROLQ $21, Z3, K1, Z3; \
	VPXORQ Z0, Z3, K1, Z3; \
	VPADDQ Z1, Z2, K1, Z2; \
	VPROLQ $17, Z1, K1, Z1; \
	VPXORQ Z2, Z1, K1, Z1; \
	VPROLQ $32, Z2, K1, Z2

// func sip128x8(init *[4]uint64, items [][]byte, last *[8]uint64, shift uint64, shards *[8]uint16, digests *[8]PlacementDigest)
TEXT ·sip128x8(SB), NOSPLIT, $0-64
	MOVQ init+0(FP), AX
	MOVQ items_base+8(FP), BX
	MOVQ last+32(FP), CX

	VPBROADCASTQ 0(AX), Z0
	VPBROADCASTQ 8(AX), Z1
	VPBROADCASTQ 16(AX), Z2
	VPBROADCASTQ 24(AX), Z3

	// Z4: each lane's data pointer, Z15: its length, Z5: its count of
	// whole words.
	LANE_HEADERS(Z4, Z15, Z12)
	VPSRLQ $3, Z15, Z5

	MOVQ         $8, DX
	VPBROADCASTQ DX, Z7
	MOVQ         $1, DX
	VPBROADCASTQ DX, Z8
	XORQ         SI, SI

	// Z9: the length-tagged last block, ahead of the words, which it does
	// not depend on. A lane of eight bytes or more (K3) loads it as
	// sipLastBlock does: the word ending at the last byte, shifted right by
	// 64 − 8·(len mod 8) (VPSRLVQ, like Go's >>, leaves zero at a count of
	// 64), with len << 56 ORed in. A shorter lane takes it from last.
	VMOVDQU64    (CX), Z9
	VPCMPUQ      $5, Z7, Z15, K3
	VPADDQ       Z4, Z15, Z12
	VPSUBQ       Z7, Z12, Z12
	KMOVW        K3, K2
	VPGATHERQQ   0(SI)(Z12*1), K2, Z9
	MOVQ         $7, DX
	VPBROADCASTQ DX, Z12
	VPANDQ       Z12, Z15, Z12
	VPSLLQ       $3, Z12, Z12
	MOVQ         $64, DX
	VPBROADCASTQ DX, Z13
	VPSUBQ       Z12, Z13, Z12
	VPSRLVQ      Z12, Z9, K3, Z9
	VPSLLQ       $56, Z15, Z12
	VPORQ        Z12, Z9, K3, Z9

	// Compression: while some lane has a whole word left, gather word j of
	// every such lane (K1) and absorb it there.
words:
	VPTESTMQ Z5, Z5, K1
	KORTESTW K1, K1
	JZ       final
	KMOVW    K1, K2
	VPGATHERQQ 0(SI)(Z4*1), K2, Z6
	VPXORQ   Z6, Z3, K1, Z3
	SIPROUNDK1
	SIPROUNDK1
	VPXORQ   Z6, Z0, K1, Z0
	VPADDQ   Z7, Z4, Z4
	VPSUBQ   Z8, Z5, K1, Z5
	JMP      words

final:
	// The last block, then finalization with 128-bit output.
	VPXORQ    Z9, Z3, Z3
	SIPROUND
	SIPROUND
	VPXORQ    Z9, Z0, Z0
	MOVQ         $0xee, DX
	VPBROADCASTQ DX, Z10
	VPXORQ       Z10, Z2, Z2
	SIPROUND
	SIPROUND
	SIPROUND
	SIPROUND
	VPXORQ     Z0, Z1, Z10
	VPTERNLOGQ $0x96, Z2, Z3, Z10
	MOVQ         $0xdd, DX
	VPBROADCASTQ DX, Z11
	VPXORQ       Z11, Z1, Z1
	SIPROUND
	SIPROUND
	SIPROUND
	SIPROUND
	VPXORQ     Z0, Z1, Z11
	VPTERNLOGQ $0x96, Z2, Z3, Z11

	LANES_OUT(Z10, Z11, Z13, Z14)

	// Only Z0–Z15 were used, so this clears every upper half written.
	VZEROUPPER
	RET
