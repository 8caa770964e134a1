//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels behind MidRadInto and TanhInto.  Each is bitwise equal to
// its Go twin in kernels.go: the dot kernel keeps one output per lane,
// starts every accumulator at +0 and adds the products in k-ascending
// order with separate VMULPD/VADDPD (never a fused multiply-add); the
// tanh kernel replays math.Tanh's branches, with
// math.Exp's FMA path (exp_amd64.s) for the exponential.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// func midRadAsm(c2, r2, c, r, wt []float64, stride int)
//
// Blocks of 8 outputs (two centre and two radius accumulators), then
// blocks of 4.  |w| clears the sign bit, as math.Abs does.
TEXT ·midRadAsm(SB), NOSPLIT, $0-128
	MOVQ c2_base+0(FP), DI
	MOVQ c2_len+8(FP), CX
	MOVQ r2_base+24(FP), R12
	MOVQ c_base+48(FP), SI
	MOVQ c_len+56(FP), BX
	MOVQ r_base+72(FP), R13
	MOVQ wt_base+96(FP), DX
	MOVQ stride+120(FP), R8
	SHLQ $3, R8
	VBROADCASTSD absmask<>(SB), Y15

mr8:
	CMPQ CX, $8
	JLT  mr4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R9, R9
	MOVQ DX, R10
	MOVQ BX, R11
	TESTQ R11, R11
	JZ   mr8store

mr8k:
	VBROADCASTSD (SI)(R9*1), Y4
	VBROADCASTSD (R13)(R9*1), Y5
	VMOVUPD (R10), Y6
	VMOVUPD 32(R10), Y7
	VMULPD Y6, Y4, Y8
	VADDPD Y8, Y0, Y0
	VMULPD Y7, Y4, Y9
	VADDPD Y9, Y1, Y1
	VANDPD Y15, Y6, Y6
	VANDPD Y15, Y7, Y7
	VMULPD Y6, Y5, Y10
	VADDPD Y10, Y2, Y2
	VMULPD Y7, Y5, Y11
	VADDPD Y11, Y3, Y3
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  mr8k

mr8store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R12)
	VMOVUPD Y3, 32(R12)
	ADDQ $64, DI
	ADDQ $64, R12
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  mr8

mr4:
	CMPQ CX, $4
	JLT  mrdone
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	XORQ R9, R9
	MOVQ DX, R10
	MOVQ BX, R11
	TESTQ R11, R11
	JZ   mr4store

mr4k:
	VBROADCASTSD (SI)(R9*1), Y4
	VBROADCASTSD (R13)(R9*1), Y5
	VMOVUPD (R10), Y6
	VMULPD Y6, Y4, Y8
	VADDPD Y8, Y0, Y0
	VANDPD Y15, Y6, Y6
	VMULPD Y6, Y5, Y10
	VADDPD Y10, Y2, Y2
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  mr4k

mr4store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (R12)
	ADDQ $32, DI
	ADDQ $32, R12
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  mr4

mrdone:
	VZEROUPPER
	RET

// Constants of math.Tanh (tanh.go) and of math.Exp's FMA path
// (exp_amd64.s), written as the Go sources write them.
DATA tanhdata<>+0(SB)/8, $0x7fffffffffffffff // sign-bit mask
DATA tanhdata<>+8(SB)/8, $1.0
DATA tanhdata<>+16(SB)/8, $2.0
DATA tanhdata<>+24(SB)/8, $0.625
DATA tanhdata<>+32(SB)/8, $44.014845965556527147994 // 0.5·MAXLOG
DATA tanhdata<>+40(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA tanhdata<>+48(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA tanhdata<>+56(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA tanhdata<>+64(SB)/8, $0.0625
DATA tanhdata<>+72(SB)/8, $2.4801587301587301587e-5
DATA tanhdata<>+80(SB)/8, $1.9841269841269841270e-4
DATA tanhdata<>+88(SB)/8, $1.3888888888888888889e-3
DATA tanhdata<>+96(SB)/8, $8.3333333333333333333e-3
DATA tanhdata<>+104(SB)/8, $4.1666666666666666667e-2
DATA tanhdata<>+112(SB)/8, $1.6666666666666666667e-1
DATA tanhdata<>+120(SB)/8, $0.5
DATA tanhdata<>+128(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA tanhdata<>+136(SB)/8, $-9.92877231001918586564e1
DATA tanhdata<>+144(SB)/8, $-1.61468768441708447952e3
DATA tanhdata<>+152(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA tanhdata<>+160(SB)/8, $2.23548839060100448583e3
DATA tanhdata<>+168(SB)/8, $4.84406305325125486048e3
DATA tanhdata<>+176(SB)/8, $0x3ff // exponent bias
GLOBL tanhdata<>(SB), RODATA|NOPTR, $184

// func tanhAsm(dst, src []float64)
//
// Per four lanes x, with z = |x| (the names follow tanh.go):
//   z > 0.5·MAXLOG:  ±1 with the sign of x
//   z ≥ 0.625:       ±(1 − 2/(Exp(2z)+1))
//   x == 0:          x
//   otherwise:       x + x·s·P(s)/Q(s), s = x·x
// Every lane evaluates the last three and the blends pick one; NaN fails
// every comparison and so takes the rational branch, as in tanh.go.
TEXT ·tanhAsm(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VBROADCASTSD tanhdata<>+0(SB), Y15
	VBROADCASTSD tanhdata<>+8(SB), Y14
	VBROADCASTSD tanhdata<>+16(SB), Y13
	SHRQ $2, CX
	JZ   thdone

thloop:
	VMOVUPD (SI), Y0          // x
	VANDPD  Y15, Y0, Y1       // z = |x|
	VANDNPD Y0, Y15, Y6       // sign bit of x

	// Exp(2z), as archExp's avxfma path.
	VADDPD Y1, Y1, Y2         // a = 2z
	VBROADCASTSD tanhdata<>+40(SB), Y3
	VMULPD Y2, Y3, Y3         // LOG2E·a
	VCVTPD2DQY Y3, X4         // k, rounded to nearest
	VCVTDQ2PD X4, Y3
	VBROADCASTSD tanhdata<>+48(SB), Y5
	VFNMADD231PD Y5, Y3, Y2   // a −= k·LN2U
	VBROADCASTSD tanhdata<>+56(SB), Y5
	VFNMADD231PD Y5, Y3, Y2   // a −= k·LN2L
	VBROADCASTSD tanhdata<>+64(SB), Y5
	VMULPD Y5, Y2, Y2         // a *= 1/16
	VBROADCASTSD tanhdata<>+72(SB), Y3
	VBROADCASTSD tanhdata<>+80(SB), Y5
	VFMADD213PD Y5, Y2, Y3    // p = p·a + c
	VBROADCASTSD tanhdata<>+88(SB), Y5
	VFMADD213PD Y5, Y2, Y3
	VBROADCASTSD tanhdata<>+96(SB), Y5
	VFMADD213PD Y5, Y2, Y3
	VBROADCASTSD tanhdata<>+104(SB), Y5
	VFMADD213PD Y5, Y2, Y3
	VBROADCASTSD tanhdata<>+112(SB), Y5
	VFMADD213PD Y5, Y2, Y3
	VBROADCASTSD tanhdata<>+120(SB), Y5
	VFMADD213PD Y5, Y2, Y3
	VFMADD213PD Y14, Y2, Y3
	VMULPD Y3, Y2, Y2         // a *= p
	VADDPD Y13, Y2, Y3        // undo the 1/16: a *= a + 2, four times
	VMULPD Y3, Y2, Y2
	VADDPD Y13, Y2, Y3
	VMULPD Y3, Y2, Y2
	VADDPD Y13, Y2, Y3
	VMULPD Y3, Y2, Y2
	VADDPD Y13, Y2, Y3
	VFMADD213PD Y14, Y3, Y2   // the last one fused with + 1
	VPMOVSXDQ X4, Y4          // scale by 2^k: (k + 1023) << 52
	VPBROADCASTQ tanhdata<>+176(SB), Y5
	VPADDQ Y5, Y4, Y4
	VPSLLQ $52, Y4, Y4
	VMULPD Y4, Y2, Y2         // s = Exp(2z)

	// 1 − 2/(s+1), signed.
	VADDPD Y14, Y2, Y2
	VDIVPD Y2, Y13, Y2
	VSUBPD Y2, Y14, Y2
	VORPD  Y6, Y2, Y2

	// x + x·s·P(s)/Q(s).
	VMULPD Y0, Y0, Y7         // s = x·x
	VBROADCASTSD tanhdata<>+128(SB), Y8
	VMULPD Y7, Y8, Y8
	VBROADCASTSD tanhdata<>+136(SB), Y9
	VADDPD Y9, Y8, Y8
	VMULPD Y7, Y8, Y8
	VBROADCASTSD tanhdata<>+144(SB), Y9
	VADDPD Y9, Y8, Y8         // P(s)
	VBROADCASTSD tanhdata<>+152(SB), Y9
	VADDPD Y9, Y7, Y9
	VMULPD Y7, Y9, Y9
	VBROADCASTSD tanhdata<>+160(SB), Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y7, Y9, Y9
	VBROADCASTSD tanhdata<>+168(SB), Y10
	VADDPD Y10, Y9, Y9        // Q(s)
	VMULPD Y7, Y0, Y10        // x·s
	VMULPD Y8, Y10, Y10
	VDIVPD Y9, Y10, Y10
	VADDPD Y10, Y0, Y10

	// Blend: x where x == 0, the exp branch where z ≥ 0.625, ±1 where
	// z > 0.5·MAXLOG.
	VXORPD Y11, Y11, Y11
	VCMPPD $0x00, Y11, Y0, Y12 // EQ_OQ
	VBLENDVPD Y12, Y0, Y10, Y10
	VBROADCASTSD tanhdata<>+24(SB), Y11
	VCMPPD $0x1d, Y11, Y1, Y12 // GE_OQ
	VBLENDVPD Y12, Y2, Y10, Y10
	VBROADCASTSD tanhdata<>+32(SB), Y11
	VCMPPD $0x1e, Y11, Y1, Y12 // GT_OQ
	VORPD  Y6, Y14, Y11
	VBLENDVPD Y12, Y11, Y10, Y10
	VMOVUPD Y10, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  thloop

thdone:
	VZEROUPPER
	RET
