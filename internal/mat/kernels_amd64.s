//go:build amd64 && !purego

#include "textflag.h"

// AVX2 and AVX-512 kernels behind VecMatInto, MidRadInto and TanhInto.
// Each is bitwise equal to its Go twin in kernels.go: the dot kernels keep
// one output per lane, start every accumulator at +0 and add the products
// in k-ascending order with separate VMULPD/VADDPD (never a fused
// multiply-add); the tanh kernels replay math.Tanh's branches, with
// math.Exp's FMA path (exp_amd64.s) for the exponential.  The AVX-512
// kernels use AVX512F instructions only, and registers Z0–Z15 and K1.

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

// func vecMatAVX2(dst, x, wt, b []float64, stride int)
//
// Blocks of 16 outputs (four accumulators), then blocks of 4.  Input k
// reads the block's run of row k, 8·stride·k bytes after the block's start
// in wt; each block adds its biases (AX) to the sums as it stores them,
// the sum as the first operand.
TEXT ·vecMatAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	MOVQ wt_base+48(FP), DX
	MOVQ b_base+72(FP), AX
	MOVQ stride+96(FP), R8
	SHLQ $3, R8

vm16:
	CMPQ CX, $16
	JLT  vm4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ R9, R9
	MOVQ DX, R10
	MOVQ BX, R11
	TESTQ R11, R11
	JZ   vm16store

vm16k:
	VBROADCASTSD (SI)(R9*1), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R10), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R10), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R10), Y4, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  vm16k

vm16store:
	VADDPD (AX), Y0, Y0
	VADDPD 32(AX), Y1, Y1
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, AX
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  vm16

vm4:
	CMPQ CX, $4
	JLT  vmdone
	VXORPD Y0, Y0, Y0
	XORQ R9, R9
	MOVQ DX, R10
	MOVQ BX, R11
	TESTQ R11, R11
	JZ   vm4store

vm4k:
	VBROADCASTSD (SI)(R9*1), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  vm4k

vm4store:
	VADDPD (AX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, AX
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  vm4

vmdone:
	VZEROUPPER
	RET

// func vecMatAVX512(dst, x, wt, b []float64, stride int)
//
// Blocks of 32 outputs, four ZMM accumulators, laid out as vecMatAVX2's
// 16-output blocks.
TEXT ·vecMatAVX512(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), BX
	MOVQ wt_base+48(FP), DX
	MOVQ b_base+72(FP), AX
	MOVQ stride+96(FP), R8
	SHLQ $3, R8

vz32:
	CMPQ CX, $32
	JLT  vzdone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ R9, R9
	MOVQ DX, R10
	MOVQ BX, R11
	TESTQ R11, R11
	JZ   vz32store

vz32k:
	VBROADCASTSD (SI)(R9*1), Z4
	VMULPD (R10), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(R10), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(R10), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(R10), Z4, Z8
	VADDPD Z8, Z3, Z3
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  vz32k

vz32store:
	VADDPD (AX), Z0, Z0
	VADDPD 64(AX), Z1, Z1
	VADDPD 128(AX), Z2, Z2
	VADDPD 192(AX), Z3, Z3
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, AX
	ADDQ $256, DX
	SUBQ $32, CX
	JMP  vz32

vzdone:
	VZEROUPPER
	RET

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// func midRadAVX2(c2, r2, c, r, wt []float64, stride int)
//
// Blocks of 8 outputs (two centre and two radius accumulators), then
// blocks of 4.  |w| clears the sign bit, as math.Abs does.
TEXT ·midRadAVX2(SB), NOSPLIT, $0-128
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

// func midRadAVX512(c2, r2, c, r, wt []float64, stride int)
//
// Blocks of 16 outputs: two centre and two radius ZMM accumulators.
// VPANDQ clears the sign bit for |w|.
TEXT ·midRadAVX512(SB), NOSPLIT, $0-128
	MOVQ c2_base+0(FP), DI
	MOVQ c2_len+8(FP), CX
	MOVQ r2_base+24(FP), R12
	MOVQ c_base+48(FP), SI
	MOVQ c_len+56(FP), BX
	MOVQ r_base+72(FP), R13
	MOVQ wt_base+96(FP), DX
	MOVQ stride+120(FP), R8
	SHLQ $3, R8
	VPBROADCASTQ absmask<>(SB), Z15

mz16:
	CMPQ CX, $16
	JLT  mzdone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ R9, R9
	MOVQ DX, R10
	MOVQ BX, R11
	TESTQ R11, R11
	JZ   mz16store

mz16k:
	VBROADCASTSD (SI)(R9*1), Z4
	VBROADCASTSD (R13)(R9*1), Z5
	VMOVUPD (R10), Z6
	VMOVUPD 64(R10), Z7
	VMULPD Z6, Z4, Z8
	VADDPD Z8, Z0, Z0
	VMULPD Z7, Z4, Z9
	VADDPD Z9, Z1, Z1
	VPANDQ Z15, Z6, Z6
	VPANDQ Z15, Z7, Z7
	VMULPD Z6, Z5, Z10
	VADDPD Z10, Z2, Z2
	VMULPD Z7, Z5, Z11
	VADDPD Z11, Z3, Z3
	ADDQ $8, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  mz16k

mz16store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (R12)
	VMOVUPD Z3, 64(R12)
	ADDQ $128, DI
	ADDQ $128, R12
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  mz16

mzdone:
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

// func tanhAVX2(dst, src []float64)
//
// Per four lanes x, with z = |x| (the names follow tanh.go):
//   z > 0.5·MAXLOG:  ±1 with the sign of x
//   z ≥ 0.625:       ±(1 − 2/(Exp(2z)+1))
//   x == 0:          x
//   otherwise:       x + x·s·P(s)/Q(s), s = x·x
// Every lane evaluates the last three and the blends pick one; NaN fails
// every comparison and so takes the rational branch, as in tanh.go.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-48
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

// func tanhAVX512(dst, src []float64)
//
// tanhAVX2 on eight lanes: the same instructions on ZMM registers, except
// that each blend compares into K1 and picks with VBLENDMPD, and the bit
// operations take their AVX512F integer forms.
TEXT ·tanhAVX512(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VPBROADCASTQ tanhdata<>+0(SB), Z15
	VBROADCASTSD tanhdata<>+8(SB), Z14
	VBROADCASTSD tanhdata<>+16(SB), Z13
	SHRQ $3, CX
	JZ   tzdone

tzloop:
	VMOVUPD (SI), Z0          // x
	VPANDQ  Z15, Z0, Z1       // z = |x|
	VPANDNQ Z0, Z15, Z6       // sign bit of x

	// Exp(2z), as archExp's avxfma path.
	VADDPD Z1, Z1, Z2         // a = 2z
	VBROADCASTSD tanhdata<>+40(SB), Z3
	VMULPD Z2, Z3, Z3         // LOG2E·a
	VCVTPD2DQ Z3, Y4          // k, rounded to nearest
	VCVTDQ2PD Y4, Z3
	VBROADCASTSD tanhdata<>+48(SB), Z5
	VFNMADD231PD Z5, Z3, Z2   // a −= k·LN2U
	VBROADCASTSD tanhdata<>+56(SB), Z5
	VFNMADD231PD Z5, Z3, Z2   // a −= k·LN2L
	VBROADCASTSD tanhdata<>+64(SB), Z5
	VMULPD Z5, Z2, Z2         // a *= 1/16
	VBROADCASTSD tanhdata<>+72(SB), Z3
	VBROADCASTSD tanhdata<>+80(SB), Z5
	VFMADD213PD Z5, Z2, Z3    // p = p·a + c
	VBROADCASTSD tanhdata<>+88(SB), Z5
	VFMADD213PD Z5, Z2, Z3
	VBROADCASTSD tanhdata<>+96(SB), Z5
	VFMADD213PD Z5, Z2, Z3
	VBROADCASTSD tanhdata<>+104(SB), Z5
	VFMADD213PD Z5, Z2, Z3
	VBROADCASTSD tanhdata<>+112(SB), Z5
	VFMADD213PD Z5, Z2, Z3
	VBROADCASTSD tanhdata<>+120(SB), Z5
	VFMADD213PD Z5, Z2, Z3
	VFMADD213PD Z14, Z2, Z3
	VMULPD Z3, Z2, Z2         // a *= p
	VADDPD Z13, Z2, Z3        // undo the 1/16: a *= a + 2, four times
	VMULPD Z3, Z2, Z2
	VADDPD Z13, Z2, Z3
	VMULPD Z3, Z2, Z2
	VADDPD Z13, Z2, Z3
	VMULPD Z3, Z2, Z2
	VADDPD Z13, Z2, Z3
	VFMADD213PD Z14, Z3, Z2   // the last one fused with + 1
	VPMOVSXDQ Y4, Z4          // scale by 2^k: (k + 1023) << 52
	VPBROADCASTQ tanhdata<>+176(SB), Z5
	VPADDQ Z5, Z4, Z4
	VPSLLQ $52, Z4, Z4
	VMULPD Z4, Z2, Z2         // s = Exp(2z)

	// 1 − 2/(s+1), signed.
	VADDPD Z14, Z2, Z2
	VDIVPD Z2, Z13, Z2
	VSUBPD Z2, Z14, Z2
	VPORQ  Z6, Z2, Z2

	// x + x·s·P(s)/Q(s).
	VMULPD Z0, Z0, Z7         // s = x·x
	VBROADCASTSD tanhdata<>+128(SB), Z8
	VMULPD Z7, Z8, Z8
	VBROADCASTSD tanhdata<>+136(SB), Z9
	VADDPD Z9, Z8, Z8
	VMULPD Z7, Z8, Z8
	VBROADCASTSD tanhdata<>+144(SB), Z9
	VADDPD Z9, Z8, Z8         // P(s)
	VBROADCASTSD tanhdata<>+152(SB), Z9
	VADDPD Z9, Z7, Z9
	VMULPD Z7, Z9, Z9
	VBROADCASTSD tanhdata<>+160(SB), Z10
	VADDPD Z10, Z9, Z9
	VMULPD Z7, Z9, Z9
	VBROADCASTSD tanhdata<>+168(SB), Z10
	VADDPD Z10, Z9, Z9        // Q(s)
	VMULPD Z7, Z0, Z10        // x·s
	VMULPD Z8, Z10, Z10
	VDIVPD Z9, Z10, Z10
	VADDPD Z10, Z0, Z10

	// Blend: x where x == 0, the exp branch where z ≥ 0.625, ±1 where
	// z > 0.5·MAXLOG.
	VPXORQ Z11, Z11, Z11
	VCMPPD $0x00, Z11, Z0, K1 // EQ_OQ
	VBLENDMPD Z0, Z10, K1, Z10
	VBROADCASTSD tanhdata<>+24(SB), Z11
	VCMPPD $0x1d, Z11, Z1, K1 // GE_OQ
	VBLENDMPD Z2, Z10, K1, Z10
	VBROADCASTSD tanhdata<>+32(SB), Z11
	VCMPPD $0x1e, Z11, Z1, K1 // GT_OQ
	VPORQ  Z6, Z14, Z11
	VBLENDMPD Z11, Z10, K1, Z10
	VMOVUPD Z10, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  tzloop

tzdone:
	VZEROUPPER
	RET
