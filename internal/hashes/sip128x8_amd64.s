#include "textflag.h"

// SipHash-2-4-128 over eight items at once, one item per 64-bit lane of a
// ZMM register: Z0–Z3 hold v0–v3 of all eight. See sip128x8_amd64.go.

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

	// Z4: each lane's data pointer, Z5: its count of whole words, both read
	// from the eight slice headers (24 bytes apart).
	VMOVDQU64 sipHeaderOffsets<>(SB), Z12
	KXNORW    K2, K2, K2
	VPGATHERQQ 0(BX)(Z12*1), K2, Z4
	KXNORW    K2, K2, K2
	VPGATHERQQ 8(BX)(Z12*1), K2, Z5
	VPSRLQ    $3, Z5, Z5

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

	// Shards: the top bits of w0, narrowed to 16 bits.
	MOVQ    shift+40(FP), DX
	VMOVQ   DX, X13
	VPSRLQ  X13, Z10, Z13
	MOVQ    shards+48(FP), DI
	VPMOVQW Z13, (DI)

	// Digests: (w0, w1) pairs in lane order.
	MOVQ      digests+56(FP), DI
	VMOVDQU64 sipInterleave<>+0(SB), Z13
	VMOVDQU64 sipInterleave<>+64(SB), Z14
	VPERMI2Q  Z11, Z10, Z13
	VPERMI2Q  Z11, Z10, Z14
	VMOVDQU64 Z13, 0(DI)
	VMOVDQU64 Z14, 64(DI)

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

DATA sipHeaderOffsets<>+0x00(SB)/8, $0
DATA sipHeaderOffsets<>+0x08(SB)/8, $24
DATA sipHeaderOffsets<>+0x10(SB)/8, $48
DATA sipHeaderOffsets<>+0x18(SB)/8, $72
DATA sipHeaderOffsets<>+0x20(SB)/8, $96
DATA sipHeaderOffsets<>+0x28(SB)/8, $120
DATA sipHeaderOffsets<>+0x30(SB)/8, $144
DATA sipHeaderOffsets<>+0x38(SB)/8, $168
GLOBL sipHeaderOffsets<>(SB), RODATA|NOPTR, $64

// VPERMI2Q indexes: below 8 picks lane i of w0, from 8 lane i−8 of w1.
DATA sipInterleave<>+0x00(SB)/8, $0
DATA sipInterleave<>+0x08(SB)/8, $8
DATA sipInterleave<>+0x10(SB)/8, $1
DATA sipInterleave<>+0x18(SB)/8, $9
DATA sipInterleave<>+0x20(SB)/8, $2
DATA sipInterleave<>+0x28(SB)/8, $10
DATA sipInterleave<>+0x30(SB)/8, $3
DATA sipInterleave<>+0x38(SB)/8, $11
DATA sipInterleave<>+0x40(SB)/8, $4
DATA sipInterleave<>+0x48(SB)/8, $12
DATA sipInterleave<>+0x50(SB)/8, $5
DATA sipInterleave<>+0x58(SB)/8, $13
DATA sipInterleave<>+0x60(SB)/8, $6
DATA sipInterleave<>+0x68(SB)/8, $14
DATA sipInterleave<>+0x70(SB)/8, $7
DATA sipInterleave<>+0x78(SB)/8, $15
GLOBL sipInterleave<>(SB), RODATA|NOPTR, $128
