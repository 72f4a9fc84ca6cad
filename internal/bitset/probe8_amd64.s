//go:build !race

#include "textflag.h"

// TestProgressions' kernel: eight keys' bit probes at once, one key per
// 64-bit lane of a ZMM register. See probe8_amd64.go.

// func probe8(words *[8]*uint64, start, step *[8]uint64, m uint64, k int) uint8
TEXT ·probe8(SB), NOSPLIT, $0-41
	MOVQ words+0(FP), AX
	MOVQ start+8(FP), BX
	MOVQ step+16(FP), CX
	MOVQ k+32(FP), DX

	// Z0: each lane's word 0, Z1: its index g, Z2: its step, Z3: m,
	// Z4: back = m − step, the g from which g + step reaches m.
	VMOVDQU64    (AX), Z0
	VMOVDQU64    (BX), Z1
	VMOVDQU64    (CX), Z2
	VPBROADCASTQ m+24(FP), Z3
	VPSUBQ       Z2, Z3, Z4
	MOVQ         $1, R8
	VPBROADCASTQ R8, Z5
	MOVQ         $63, R8
	VPBROADCASTQ R8, Z6
	XORQ         SI, SI

	// K3: the lanes every round so far found set.
	KXNORW K3, K3, K3
	TESTQ  DX, DX
	JLE    done

	// One round per index: gather word g/64 of every lane under a full
	// mask (the zeroing idiom keeps it off the last round's result), test
	// bit g mod 64, AND the verdict, then advance g without wrapping:
	// g + step, less m where g ≥ back.
round:
	VPSRLQ     $6, Z1, Z7
	VPSLLQ     $3, Z7, Z7
	VPADDQ     Z0, Z7, Z7
	VPXORQ     Z8, Z8, Z8
	KXNORW     K1, K1, K1
	VPGATHERQQ 0(SI)(Z7*1), K1, Z8
	VPANDQ     Z6, Z1, Z9
	VPSRLVQ    Z9, Z8, Z8
	VPTESTMQ   Z5, Z8, K2
	KANDW      K2, K3, K3
	VPCMPUQ    $5, Z4, Z1, K4
	VPADDQ     Z2, Z1, Z1
	VPSUBQ     Z3, Z1, K4, Z1
	DECQ       DX
	JNZ        round

done:
	KMOVW K3, AX
	MOVB  AX, ret+40(FP)

	// Only Z0–Z9 were used, so this clears every upper half written.
	VZEROUPPER
	RET
