//go:build !race

#include "textflag.h"

// SetProgression's kernel. See setprog_amd64.go.

// func setProgression(words *uint64, start, step, m uint64, k int) int
TEXT ·setProgression(SB), NOSPLIT, $0-48
	MOVQ words+0(FP), DI
	MOVQ start+8(FP), AX
	MOVQ step+16(FP), BX
	MOVQ m+24(FP), R9
	MOVQ k+32(FP), DX

	// AX: the index g, BX: the step, R9: back = m − step, the g from which
	// g + step reaches m, R8: the bits found clear.
	SUBQ BX, R9
	XORQ R8, R8

loop:
	// Load g's word, set bit g mod 64 (BTSQ leaves the old bit in CF), and
	// store the word back only when that bit was clear.
	MOVQ AX, R10
	SHRQ $6, R10
	MOVQ (DI)(R10*8), R11
	BTSQ AX, R11
	JCS  advance
	MOVQ R11, (DI)(R10*8)
	INCQ R8

advance:
	// g + step, or g − back where g ≥ back (no borrow): the sum never
	// wraps. LEAQ leaves the flags SUBQ set.
	MOVQ    AX, R12
	SUBQ    R9, R12
	LEAQ    (AX)(BX*1), AX
	CMOVQCC R12, AX
	DECQ    DX
	JNZ     loop

	MOVQ R8, ret+40(FP)
	RET
