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

	// Z4: each lane's data pointer, Z5: its count of whole words.
	LANE_HEADERS(Z4, Z5, Z12)
	VPSRLQ $3, Z5, Z5

	MOVQ         $8, DX
	VPBROADCASTQ DX, Z7
	MOVQ         $1, DX
	VPBROADCASTQ DX, Z8
	XORQ         SI, SI

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
	// The length-tagged last block, then finalization with 128-bit output.
	VMOVDQU64 (CX), Z9
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

	// Only Z0–Z14 were used, so this clears every upper half written.
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
