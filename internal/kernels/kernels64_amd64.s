//go:build amd64 && !purego

#include "textflag.h"

// Float64 kernels: the sequential simulator's per-step conv scatter, conv
// gather and fire sweeps, 4 cells per 256-bit op (avx2 tier) and 8 cells
// per 512-bit op (avx512 tier).
//
// Numerics contract: every cell receives exactly the operations of the
// generic Go loops in kernels64.go — one rounded multiply and one add
// (VMULPD + VADDPD, never FMA), an ordered compare, a masked subtract —
// so the float64 trajectory is bit-identical on every tier. The avx512
// bodies use AVX512F only (KMOVW, not KMOVB; no DQ forms), plus POPCNT
// and BMI2's SHRX and BZHI, which every AVX512F CPU has (the tier's
// CPUID gate checks BMI2 too).

// EVENT_TAPS loads the event at R12: Payload broadcast into pay (Y5 or
// Z5), the cursor over taps[tapStart[Index]:tapStart[Index+1]] in R11 and
// its length in CX; an event with no taps jumps to next.
#define EVENT_TAPS(next, pay) \
	MOVQ         0(R12), AX      \
	VBROADCASTSD 8(R12), pay     \
	MOVLQSX      0(R8)(AX*4), BX \
	MOVLQSX      4(R8)(AX*4), CX \
	SUBQ         BX, CX          \
	JLE          next            \
	LEAQ         (R10)(BX*8), R11

// SCATTER_ARGS loads the scatter kernels' shared arguments.
#define SCATTER_ARGS \
	MOVQ vmem+0(FP), DI      \
	MOVQ wsc+8(FP), SI       \
	MOVQ taps+16(FP), R10    \
	MOVQ tapStart+24(FP), R8 \
	MOVQ events+32(FP), R12  \
	MOVQ nev+40(FP), R13     \
	MOVQ outC+48(FP), R9

// TAP_BLOCK loads the tap at R11: its kernel row into BX and the start of
// its destination block, Base << shift bytes past vmem, into DX.
#define TAP_BLOCK(shift) \
	MOVLQSX 0(R11), BX     \
	MOVLQSX 4(R11), DX     \
	LEAQ    (SI)(BX*8), BX \
	SHLQ    $shift, DX     \
	ADDQ    DI, DX

// NEXT_TAP advances to the event's next tap, looping to tap.
#define NEXT_TAP(tap) \
	ADDQ $8, R11 \
	DECQ CX      \
	JNZ  tap

// NEXT_EVENT advances to the next event, looping to ev, and returns true
// after the last.
#define NEXT_EVENT(ev) \
	ADDQ       $16, R12         \
	DECQ       R13              \
	JNZ        ev               \
	MOVB       $1, ret+64(FP)   \
	VZEROUPPER                  \
	RET

// CHECK_TAIL(one, bad, done) checks the CX events at R11 one at a time
// against the input count in BX, jumping to bad at the first whose
// Index is outside [0, inputs) (unsigned compare) and to done after the
// last.
#define CHECK_TAIL(one, bad, done) \
	TESTQ CX, CX         \
	JZ    done           \
one:                         \
	MOVQ  0(R11), AX     \
	CMPQ  AX, BX         \
	JCC   bad            \
	ADDQ  $16, R11       \
	DECQ  CX             \
	JNZ   one            \
	JMP   done

// SCATTER_BAD returns false: an event lies outside the table, and
// nothing has been written.
#define SCATTER_BAD \
	MOVB $0, ret+64(FP) \
	VZEROUPPER          \
	RET

// GATHER_SETUP loads the gather kernels' arguments and strides: DI the
// group's first v cell, SI the plane, R8 the group's first weight, R9 the
// weight stride per tap (outC*8), R13 one channel of v in bytes
// (outH*outW*8) and R14 three, R15 one plane row (pw*8); the locals hold
// the output rows left, the step from an input channel's row below its
// last kernel row to the next channel's first ((ph-k)*pw*8), and the v
// columns past the packed ones ((outW-cols)*8).
#define GATHER_SETUP \
	MOVQ  v+0(FP), DI       \
	MOVQ  plane+8(FP), SI   \
	MOVQ  wsc+16(FP), R8    \
	MOVQ  outC+24(FP), R9   \
	SHLQ  $3, R9            \
	MOVQ  k+40(FP), AX      \
	MOVQ  ph+48(FP), CX     \
	MOVQ  pw+56(FP), R15    \
	SUBQ  AX, CX            \
	MOVQ  CX, DX            \
	IMULQ R15, DX           \
	SHLQ  $3, DX            \
	MOVQ  DX, icstep-16(SP) \
	INCQ  CX                \
	MOVQ  CX, rows-8(SP)    \
	MOVQ  R15, R13          \
	SUBQ  AX, R13           \
	INCQ  R13               \
	MOVQ  R13, DX           \
	SUBQ  cols+64(FP), DX   \
	SHLQ  $3, DX            \
	MOVQ  DX, vskip-24(SP)  \
	IMULQ CX, R13           \
	SHLQ  $3, R13           \
	LEAQ  (R13)(R13*2), R14 \
	SHLQ  $3, R15

// GATHER_NEXT_ROW moves DI past the columns the Go loop takes and SI from
// past the row's last packed column to the next row's column 0 (AX
// scratch), looping to row while rows are left.
#define GATHER_NEXT_ROW(row) \
	ADDQ vskip-24(SP), DI \
	MOVQ cols+64(FP), AX  \
	SHLQ $3, AX           \
	SUBQ AX, SI           \
	ADDQ R15, SI          \
	DECQ rows-8(SP)       \
	JNZ  row

// func convScatterEvents64AVX2(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC, inputs int) bool
// for each event, for each tap of taps[tapStart[Index]:tapStart[Index+1]]:
// vmem[Base*outC + i] += wsc[WOff+i] * Payload, i in [0,outC); nev >= 1
// and outC a positive multiple of 4. outC 8 and 16 run unrolled bodies
// (2 and 4 independent multiply/add/store chains per tap); any other
// width runs the counted loop. Same operations per cell either way. A
// first pass checks every Index against inputs, the table's input count,
// and returns false before writing anything if one is outside it.
TEXT ·convScatterEvents64AVX2(SB), NOSPLIT, $0-65
	SCATTER_ARGS
	MOVQ R12, R11
	MOVQ R13, CX
	MOVQ inputs+56(FP), BX
	CHECK_TAIL(chk1, chkbad, checked)

chkbad:
	SCATTER_BAD

checked:
	CMPQ R9, $8
	JEQ  ev8
	CMPQ R9, $16
	JEQ  ev16
	SHLQ $3, R9                    // block bytes per base: outC * 8

evn:
	EVENT_TAPS(nextn, Y5)

tapn:
	MOVLQSX 0(R11), BX             // tap.WOff
	MOVLQSX 4(R11), DX             // tap.Base
	LEAQ    (SI)(BX*8), BX         // kernel row
	IMULQ   R9, DX
	ADDQ    DI, DX                 // destination block
	XORQ    AX, AX                 // byte offset into both

celln:
	VMULPD  (BX)(AX*1), Y5, Y0     // w * p, rounded once
	VADDPD  (DX)(AX*1), Y0, Y0
	VMOVUPD Y0, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R9
	JLT     celln
	NEXT_TAP(tapn)

nextn:
	NEXT_EVENT(evn)

ev8:
	EVENT_TAPS(next8, Y5)

tap8:
	TAP_BLOCK(6)                   // Base * 8 cells * 8 bytes
	VMULPD  0(BX), Y5, Y0
	VMULPD  32(BX), Y5, Y1
	VADDPD  0(DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	NEXT_TAP(tap8)

next8:
	NEXT_EVENT(ev8)

ev16:
	EVENT_TAPS(next16, Y5)

tap16:
	TAP_BLOCK(7)                   // Base * 16 cells * 8 bytes
	VMULPD  0(BX), Y5, Y0
	VMULPD  32(BX), Y5, Y1
	VMULPD  64(BX), Y5, Y2
	VMULPD  96(BX), Y5, Y3
	VADDPD  0(DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VADDPD  64(DX), Y2, Y2
	VADDPD  96(DX), Y3, Y3
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	NEXT_TAP(tap16)

next16:
	NEXT_EVENT(ev16)

// func convScatterEvents64AVX512(vmem, wsc *float64, taps *ConvTap, tapStart *int32, events *Event, nev, outC, inputs int) bool
// convScatterEvents64AVX2 on 8-cell ZMM registers: nev >= 1 and outC a
// positive multiple of 8. outC 8 is one multiply/add/store per tap and
// outC 16 two independent chains; any other width runs the counted loop.
// Separate VMULPD and VADDPD, as on avx2: never FMA. The index check
// compares 4 events per op, the Index lanes of one 64-byte load.
TEXT ·convScatterEvents64AVX512(SB), NOSPLIT, $0-65
	SCATTER_ARGS
	MOVQ         R12, R11
	MOVQ         R13, CX
	MOVQ         inputs+56(FP), BX
	VPBROADCASTQ BX, Z30
	MOVW         $0x55, AX
	KMOVW        AX, K2            // the index lanes of 4 events

zchk4:
	CMPQ     CX, $4
	JLT      zchktail
	VPCMPUQ  $2, (R11), Z30, K2, K1 // inputs <= Index, unsigned
	KORTESTW K1, K1
	JNZ      zchkbad
	ADDQ     $64, R11
	SUBQ     $4, CX
	JMP      zchk4

zchktail:
	CHECK_TAIL(zchk1, zchkbad, zchecked)

zchkbad:
	SCATTER_BAD

zchecked:
	CMPQ R9, $8
	JEQ  zev8
	CMPQ R9, $16
	JEQ  zev16
	SHLQ $3, R9                    // block bytes per base: outC * 8

zevn:
	EVENT_TAPS(znextn, Z5)

ztapn:
	MOVLQSX 0(R11), BX
	MOVLQSX 4(R11), DX
	LEAQ    (SI)(BX*8), BX
	IMULQ   R9, DX
	ADDQ    DI, DX
	XORQ    AX, AX

zcelln:
	VMULPD  (BX)(AX*1), Z5, Z0
	VADDPD  (DX)(AX*1), Z0, Z0
	VMOVUPD Z0, (DX)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R9
	JLT     zcelln
	NEXT_TAP(ztapn)

znextn:
	NEXT_EVENT(zevn)

zev8:
	EVENT_TAPS(znext8, Z5)

ztap8:
	TAP_BLOCK(6)
	VMULPD  0(BX), Z5, Z0
	VADDPD  0(DX), Z0, Z0
	VMOVUPD Z0, 0(DX)
	NEXT_TAP(ztap8)

znext8:
	NEXT_EVENT(zev8)

zev16:
	EVENT_TAPS(znext16, Z5)

ztap16:
	TAP_BLOCK(7)
	VMULPD  0(BX), Z5, Z0
	VMULPD  64(BX), Z5, Z1
	VADDPD  0(DX), Z0, Z0
	VADDPD  64(DX), Z1, Z1
	VMOVUPD Z0, 0(DX)
	VMOVUPD Z1, 64(DX)
	NEXT_TAP(ztap16)

znext16:
	NEXT_EVENT(zev16)

// func convGather64AVX2(v, plane, wsc *float64, outC, inC, k, ph, pw, cols int)
// ConvGather64 over output columns [0, cols) of the 4 channels starting
// at v and wsc (cols a positive multiple of 4). Each 4-cell chunk keeps
// the 4 channels' accumulators in Y0–Y3 across the whole receptive
// field; a tap is one plane load and, per channel, a weight broadcast, a
// multiply and an add, in (ic, kh, kw) order — never FMA.
TEXT ·convGather64AVX2(SB), NOSPLIT, $24-72
	GATHER_SETUP

grow:
	MOVQ cols+64(FP), CX
	SHRQ $2, CX                    // chunks in the row

gchunk:
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R13*1), Y1
	VMOVUPD (DI)(R13*2), Y2
	VMOVUPD (DI)(R14*1), Y3
	MOVQ    SI, BX                 // kernel row (ic, kh) of the chunk
	MOVQ    R8, DX                 // the tap's weights
	MOVQ    inC+32(FP), R10

gic:
	MOVQ k+40(FP), R11

gkh:
	MOVQ k+40(FP), R12
	MOVQ BX, AX

gkw:
	VMOVUPD      (AX), Y8
	VBROADCASTSD 0(DX), Y9
	VBROADCASTSD 8(DX), Y10
	VBROADCASTSD 16(DX), Y11
	VBROADCASTSD 24(DX), Y12
	VMULPD       Y8, Y9, Y9        // w * p, rounded once
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VMULPD       Y8, Y12, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	ADDQ         $8, AX
	ADDQ         R9, DX
	DECQ         R12
	JNZ          gkw
	ADDQ         R15, BX
	DECQ         R11
	JNZ          gkh
	ADDQ         icstep-16(SP), BX
	DECQ         R10
	JNZ          gic
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, (DI)(R13*1)
	VMOVUPD      Y2, (DI)(R13*2)
	VMOVUPD      Y3, (DI)(R14*1)
	ADDQ         $32, DI
	ADDQ         $32, SI
	DECQ         CX
	JNZ          gchunk
	GATHER_NEXT_ROW(grow)
	VZEROUPPER
	RET

// func convGather64AVX512(v, plane, wsc *float64, outC, inC, k, ph, pw, cols int)
// convGather64AVX2 on 8-cell ZMM chunks (cols a positive multiple of 8),
// the weight broadcast folded into the multiply's memory operand.
TEXT ·convGather64AVX512(SB), NOSPLIT, $24-72
	GATHER_SETUP

zgrow:
	MOVQ cols+64(FP), CX
	SHRQ $3, CX

zgchunk:
	VMOVUPD (DI), Z0
	VMOVUPD (DI)(R13*1), Z1
	VMOVUPD (DI)(R13*2), Z2
	VMOVUPD (DI)(R14*1), Z3
	MOVQ    SI, BX
	MOVQ    R8, DX
	MOVQ    inC+32(FP), R10

zgic:
	MOVQ k+40(FP), R11

zgkh:
	MOVQ k+40(FP), R12
	MOVQ BX, AX

zgkw:
	VMOVUPD     (AX), Z8
	VMULPD.BCST 0(DX), Z8, Z9
	VMULPD.BCST 8(DX), Z8, Z10
	VMULPD.BCST 16(DX), Z8, Z11
	VMULPD.BCST 24(DX), Z8, Z12
	VADDPD      Z9, Z0, Z0
	VADDPD      Z10, Z1, Z1
	VADDPD      Z11, Z2, Z2
	VADDPD      Z12, Z3, Z3
	ADDQ        $8, AX
	ADDQ        R9, DX
	DECQ        R12
	JNZ         zgkw
	ADDQ        R15, BX
	DECQ        R11
	JNZ         zgkh
	ADDQ        icstep-16(SP), BX
	DECQ        R10
	JNZ         zgic
	VMOVUPD     Z0, (DI)
	VMOVUPD     Z1, (DI)(R13*1)
	VMOVUPD     Z2, (DI)(R13*2)
	VMOVUPD     Z3, (DI)(R14*1)
	ADDQ        $64, DI
	ADDQ        $64, SI
	DECQ        CX
	JNZ         zgchunk
	GATHER_NEXT_ROW(zgrow)
	VZEROUPPER
	RET

// func convMaskGather64AVX512(v *float64, rows *uint64, wp, bias *float64, bsc float64, outC, inC, k, ph, pw int)
// ConvMaskGather64 over every column of the 8 channels starting at v, wp
// and bias. Each chunk of up to 8 cells of a row keeps the 8 channels'
// accumulators in Z0–Z7 across the whole receptive field; a tap is its
// row word shifted to the chunk's first column (SHRX), moved into K1
// (only the low 8 bits select lanes), and per channel one merge-masked
// add of the broadcast pre-scaled weight, in (ic, kh, kw) order. Then,
// when bias is non-nil, the channels' bias·bsc (Z16–Z23, formed once per
// call) is added. A row's last chunk may be short: K2 holds its lanes,
// and only they are loaded and stored.
TEXT ·convMaskGather64AVX512(SB), NOSPLIT, $32-80
	MOVQ         v+0(FP), DI
	MOVQ         rows+8(FP), SI
	MOVQ         wp+16(FP), R8
	MOVQ         bias+24(FP), AX
	TESTQ        AX, AX
	JZ           zmsetup
	VBROADCASTSD bsc+32(FP), Z24
	VMULPD.BCST  0(AX), Z24, Z16   // bias * bsc, rounded once
	VMULPD.BCST  8(AX), Z24, Z17
	VMULPD.BCST  16(AX), Z24, Z18
	VMULPD.BCST  24(AX), Z24, Z19
	VMULPD.BCST  32(AX), Z24, Z20
	VMULPD.BCST  40(AX), Z24, Z21
	VMULPD.BCST  48(AX), Z24, Z22
	VMULPD.BCST  56(AX), Z24, Z23

zmsetup:
	MOVQ  outC+40(FP), R9
	SHLQ  $3, R9                   // weight stride per tap
	MOVQ  k+56(FP), AX
	MOVQ  ph+64(FP), BX
	MOVQ  pw+72(FP), CX
	SUBQ  AX, CX
	INCQ  CX
	MOVQ  CX, outw-8(SP)           // outW
	MOVQ  BX, R15
	SUBQ  AX, R15
	SHLQ  $3, R15                  // past a channel's k row words to the next channel's first
	SUBQ  AX, BX
	INCQ  BX
	MOVQ  BX, left-24(SP)          // output rows left
	IMULQ CX, BX
	SHLQ  $3, BX
	MOVQ  BX, chs-16(SP)           // one channel of v in bytes

zmrow:
	XORQ R10, R10                  // the chunk's first column

zmchunk:
	MOVQ    outw-8(SP), AX
	SUBQ    R10, AX
	MOVQ    $8, BX
	CMPQ    AX, BX
	CMOVQGT BX, AX                 // lanes = min(8, outW - column)
	MOVQ    AX, lanes-32(SP)
	MOVL    $0xFF, BX
	BZHIQ   AX, BX, BX
	KMOVW   BX, K2
	MOVQ    chs-16(SP), AX
	LEAQ    (AX)(AX*2), BX
	LEAQ    (DI)(AX*4), CX
	VMOVUPD.Z (DI), K2, Z0
	VMOVUPD.Z (DI)(AX*1), K2, Z1
	VMOVUPD.Z (DI)(AX*2), K2, Z2
	VMOVUPD.Z (DI)(BX*1), K2, Z3
	VMOVUPD.Z (CX), K2, Z4
	VMOVUPD.Z (CX)(AX*1), K2, Z5
	VMOVUPD.Z (CX)(AX*2), K2, Z6
	VMOVUPD.Z (CX)(BX*1), K2, Z7
	MOVQ    SI, R12                // row word (ic, kh) of the chunk
	MOVQ    R8, DX                 // the tap's weights
	MOVQ    inC+48(FP), R14

zmic:
	MOVQ k+56(FP), R13

zmkh:
	MOVQ (R12), BX
	MOVQ R10, CX
	MOVQ k+56(FP), R11

zmkw:
	SHRXQ       CX, BX, AX         // the chunk's 8 inputs of this tap
	KMOVW       AX, K1
	VADDPD.BCST 0(DX), Z0, K1, Z0
	VADDPD.BCST 8(DX), Z1, K1, Z1
	VADDPD.BCST 16(DX), Z2, K1, Z2
	VADDPD.BCST 24(DX), Z3, K1, Z3
	VADDPD.BCST 32(DX), Z4, K1, Z4
	VADDPD.BCST 40(DX), Z5, K1, Z5
	VADDPD.BCST 48(DX), Z6, K1, Z6
	VADDPD.BCST 56(DX), Z7, K1, Z7
	INCQ        CX
	ADDQ        R9, DX
	DECQ        R11
	JNZ         zmkw
	ADDQ        $8, R12
	DECQ        R13
	JNZ         zmkh
	ADDQ        R15, R12
	DECQ        R14
	JNZ         zmic
	CMPQ        bias+24(FP), $0
	JEQ         zmstore
	VADDPD      Z16, Z0, Z0
	VADDPD      Z17, Z1, Z1
	VADDPD      Z18, Z2, Z2
	VADDPD      Z19, Z3, Z3
	VADDPD      Z20, Z4, Z4
	VADDPD      Z21, Z5, Z5
	VADDPD      Z22, Z6, Z6
	VADDPD      Z23, Z7, Z7

zmstore:
	MOVQ    chs-16(SP), AX
	LEAQ    (AX)(AX*2), BX
	LEAQ    (DI)(AX*4), CX
	VMOVUPD Z0, K2, (DI)
	VMOVUPD Z1, K2, (DI)(AX*1)
	VMOVUPD Z2, K2, (DI)(AX*2)
	VMOVUPD Z3, K2, (DI)(BX*1)
	VMOVUPD Z4, K2, (CX)
	VMOVUPD Z5, K2, (CX)(AX*1)
	VMOVUPD Z6, K2, (CX)(AX*2)
	VMOVUPD Z7, K2, (CX)(BX*1)
	MOVQ    lanes-32(SP), AX
	LEAQ    (DI)(AX*8), DI         // a channel's rows are contiguous
	ADDQ    $8, R10
	CMPQ    R10, outw-8(SP)
	JLT     zmchunk
	ADDQ    $8, SI
	DECQ    left-24(SP)
	JNZ     zmrow
	VZEROUPPER
	RET

// NEXT_CELL finishes one cell of an avx2 fire sweep's group, whose event
// {CX, payload} the caller has just written at the cursor R10: the cursor
// advances by one event when the cell's bit (the low bit of DX) is set,
// DX moves to the next cell's bit and CX to the next cell.
#define NEXT_CELL \
	MOVQ DX, AX  \
	ANDQ $1, AX  \
	SHLQ $4, AX  \
	ADDQ AX, R10 \
	SHRQ $1, DX  \
	INCQ CX

// func fireCells64AVX2(v *float64, ev *Event, n int, bias *float64, period int, bsc, th float64) int
// The constant-threshold fire sweep over n cells (a multiple of 4):
// v += bias[c mod period]*bsc (bias nil: no add; period a multiple of
// 4), then th <= v (predicate 2, LE, ordered — NaN never fires, like the
// scalar >=) resets by subtraction; each cell writes its event {c, th} at
// the cursor, which only a fired cell advances. Returns the event count.
TEXT ·fireCells64AVX2(SB), NOSPLIT, $0-64
	MOVQ         v+0(FP), DI
	MOVQ         ev+8(FP), R10
	MOVQ         n+16(FP), R11
	MOVQ         bias+24(FP), R14
	MOVQ         period+32(FP), R9
	VBROADCASTSD bsc+40(FP), Y11
	VBROADCASTSD th+48(FP), Y0
	MOVQ         th+48(FP), R8    // every event's payload
	LEAQ         (R14)(R9*8), R9  // bias end
	MOVQ         R14, R12         // bias cursor
	MOVQ         R10, R15         // first event
	XORQ         CX, CX           // cell index

floop:
	CMPQ    CX, R11
	JGE     fdone
	VMOVUPD (DI), Y1
	TESTQ   R14, R14
	JZ      fnobias
	VMULPD  (R12), Y11, Y2        // bias * bsc, rounded once
	VADDPD  Y2, Y1, Y1
	ADDQ    $32, R12
	CMPQ    R12, R9
	CMOVQEQ R14, R12              // wrap at the period

fnobias:
	VCMPPD    $2, Y1, Y0, Y2      // Y2 = (th <= v) ? ^0 : 0
	VANDPD    Y0, Y2, Y3          // th where fired, else +0
	VSUBPD    Y3, Y1, Y1
	VMOVUPD   Y1, (DI)
	VMOVMSKPD Y2, DX
	MOVQ      CX, 0(R10)
	MOVQ      R8, 8(R10)
	NEXT_CELL
	MOVQ      CX, 0(R10)
	MOVQ      R8, 8(R10)
	NEXT_CELL
	MOVQ      CX, 0(R10)
	MOVQ      R8, 8(R10)
	NEXT_CELL
	MOVQ      CX, 0(R10)
	MOVQ      R8, 8(R10)
	NEXT_CELL
	ADDQ      $32, DI
	JMP       floop

fdone:
	SUBQ R15, R10
	SHRQ $4, R10
	MOVQ R10, ret+56(FP)
	VZEROUPPER
	RET

// func fireCellsBurst64AVX2(v, h *float64, ev *Event, n int, bias *float64, period int, bsc, beta, vth float64) int
// The burst fire sweep (Eq. 8/9) over n cells (a multiple of 4) on the
// folded state h: g = h; th = g*vth; fired = th <= v; h = fired ? beta*g
// : 1 (a sign-mask blend, exact because the compare result is all-ones or
// zero); v -= fired ? th : +0; each cell writes {c, th} at the cursor,
// which only a fired cell advances. Returns the event count.
TEXT ·fireCellsBurst64AVX2(SB), NOSPLIT, $0-80
	MOVQ         v+0(FP), DI
	MOVQ         h+8(FP), SI
	MOVQ         ev+16(FP), R10
	MOVQ         n+24(FP), R11
	MOVQ         bias+32(FP), R14
	MOVQ         period+40(FP), R9
	VBROADCASTSD bsc+48(FP), Y11
	VBROADCASTSD beta+56(FP), Y13
	VBROADCASTSD vth+64(FP), Y14
	MOVQ         $0x3FF0000000000000, DX // 1.0
	VMOVQ        DX, X15
	VBROADCASTSD X15, Y15
	LEAQ         (R14)(R9*8), R9  // bias end
	MOVQ         R14, R12         // bias cursor
	MOVQ         R10, R15         // first event
	XORQ         CX, CX           // cell index

bloop:
	CMPQ    CX, R11
	JGE     bdone
	VMOVUPD (DI), Y1
	TESTQ   R14, R14
	JZ      bnobias
	VMULPD  (R12), Y11, Y2        // bias * bsc, rounded once
	VADDPD  Y2, Y1, Y1
	ADDQ    $32, R12
	CMPQ    R12, R9
	CMOVQEQ R14, R12              // wrap at the period

bnobias:
	VMOVUPD      (SI), Y2         // g
	VMULPD       Y14, Y2, Y3      // th = g * vth
	VCMPPD       $2, Y1, Y3, Y4   // fired = th <= v
	VMULPD       Y2, Y13, Y2      // beta * g
	VBLENDVPD    Y4, Y2, Y15, Y2  // h = fired ? beta*g : 1
	VMOVUPD      Y2, (SI)
	VANDPD       Y4, Y3, Y5       // th where fired, else +0
	VSUBPD       Y5, Y1, Y1
	VMOVUPD      Y1, (DI)
	VMOVMSKPD    Y4, DX
	VEXTRACTF128 $1, Y3, X6       // the thresholds of cells 2 and 3
	MOVQ         CX, 0(R10)
	VMOVSD       X3, 8(R10)
	NEXT_CELL
	MOVQ         CX, 0(R10)
	VMOVHPD      X3, 8(R10)
	NEXT_CELL
	MOVQ         CX, 0(R10)
	VMOVSD       X6, 8(R10)
	NEXT_CELL
	MOVQ         CX, 0(R10)
	VMOVHPD      X6, 8(R10)
	NEXT_CELL
	ADDQ         $32, DI
	ADDQ         $32, SI
	JMP          bloop

bdone:
	SUBQ R15, R10
	SHRQ $4, R10
	MOVQ R10, ret+72(FP)
	VZEROUPPER
	RET

// The avx512 fire sweeps' lane constants: a group's 8 cell offsets, and
// the VPERMI2Q tables that interleave compressed cell indices (entries
// 0–7) with their thresholds (entries 8–15) into events 0–3 and 4–7.
DATA fireLanes<>+0x00(SB)/8, $0
DATA fireLanes<>+0x08(SB)/8, $1
DATA fireLanes<>+0x10(SB)/8, $2
DATA fireLanes<>+0x18(SB)/8, $3
DATA fireLanes<>+0x20(SB)/8, $4
DATA fireLanes<>+0x28(SB)/8, $5
DATA fireLanes<>+0x30(SB)/8, $6
DATA fireLanes<>+0x38(SB)/8, $7
GLOBL fireLanes<>(SB), RODATA|NOPTR, $64

DATA fireEventsLo<>+0x00(SB)/8, $0
DATA fireEventsLo<>+0x08(SB)/8, $8
DATA fireEventsLo<>+0x10(SB)/8, $1
DATA fireEventsLo<>+0x18(SB)/8, $9
DATA fireEventsLo<>+0x20(SB)/8, $2
DATA fireEventsLo<>+0x28(SB)/8, $10
DATA fireEventsLo<>+0x30(SB)/8, $3
DATA fireEventsLo<>+0x38(SB)/8, $11
GLOBL fireEventsLo<>(SB), RODATA|NOPTR, $64

DATA fireEventsHi<>+0x00(SB)/8, $4
DATA fireEventsHi<>+0x08(SB)/8, $12
DATA fireEventsHi<>+0x10(SB)/8, $5
DATA fireEventsHi<>+0x18(SB)/8, $13
DATA fireEventsHi<>+0x20(SB)/8, $6
DATA fireEventsHi<>+0x28(SB)/8, $14
DATA fireEventsHi<>+0x30(SB)/8, $7
DATA fireEventsHi<>+0x38(SB)/8, $15
GLOBL fireEventsHi<>(SB), RODATA|NOPTR, $64

// FIRE512_SETUP loads the lane constants: Z20 the first group's cell
// indices, Z21 eight in every lane, Z22/Z23 the interleave tables.
#define FIRE512_SETUP \
	VMOVDQU64    fireLanes<>(SB), Z20    \
	MOVQ         $8, AX                  \
	VPBROADCASTQ AX, Z21                 \
	VMOVDQU64    fireEventsLo<>(SB), Z22 \
	VMOVDQU64    fireEventsHi<>(SB), Z23

// EMIT8(pays) writes a group's fired cells as events at the cursor R10:
// Z4 holds the K1-selected cell indices packed low (VPCOMPRESSQ), pays
// their payloads packed low or one broadcast payload; two VPERMI2Q
// interleave them into 8 events, two 64-byte stores write them, and the
// cursor advances by popcount(K1). The slots past the fired ones receive
// stale lanes, which later groups or the caller overwrite: the cursor
// never passes the group's first cell, so all 8 slots lie inside the
// cells swept so far.
#define EMIT8(pays) \
	VMOVDQA64 Z22, Z6      \
	VPERMI2Q  pays, Z4, Z6 \
	VMOVDQA64 Z23, Z7      \
	VPERMI2Q  pays, Z4, Z7 \
	VMOVDQU64 Z6, (R10)    \
	VMOVDQU64 Z7, 64(R10)  \
	KMOVW     K1, AX       \
	POPCNTL   AX, AX       \
	SHLQ      $4, AX       \
	ADDQ      AX, R10      \
	VPADDQ    Z21, Z20, Z20

// func fireCells64AVX512(v *float64, ev *Event, n int, bias *float64, period int, bsc, th float64) int
// fireCells64AVX2 on 8-cell ZMM groups (n and a non-nil bias's period
// multiples of 8): a k-mask compare, a merge-masked subtract, and the
// fired cells compressed out of the mask into events (EMIT8).
TEXT ·fireCells64AVX512(SB), NOSPLIT, $0-64
	MOVQ         v+0(FP), DI
	MOVQ         ev+8(FP), R10
	MOVQ         n+16(FP), R11
	MOVQ         bias+24(FP), R14
	MOVQ         period+32(FP), R9
	VBROADCASTSD bsc+40(FP), Z11
	VBROADCASTSD th+48(FP), Z0
	LEAQ         (R14)(R9*8), R9  // bias end
	MOVQ         R14, R12         // bias cursor
	MOVQ         R10, R15         // first event
	FIRE512_SETUP

zfloop:
	TESTQ   R11, R11
	JZ      zfdone
	VMOVUPD (DI), Z1
	TESTQ   R14, R14
	JZ      zfnobias
	VMULPD  (R12), Z11, Z2        // bias * bsc, rounded once
	VADDPD  Z2, Z1, Z1
	ADDQ    $64, R12
	CMPQ    R12, R9
	CMOVQEQ R14, R12              // wrap at the period

zfnobias:
	VCMPPD      $2, Z1, Z0, K1    // K1 = th <= v
	VSUBPD      Z0, Z1, K1, Z1    // v -= th where fired
	VMOVUPD     Z1, (DI)
	VPCOMPRESSQ Z20, K1, Z4       // fired cell indices, packed low
	EMIT8(Z0)
	ADDQ        $64, DI
	SUBQ        $8, R11
	JMP         zfloop

zfdone:
	SUBQ R15, R10
	SHRQ $4, R10
	MOVQ R10, ret+56(FP)
	VZEROUPPER
	RET

// func fireCellsBurst64AVX512(v, h *float64, ev *Event, n int, bias *float64, period int, bsc, beta, vth float64) int
// fireCellsBurst64AVX2 on 8-cell ZMM groups: the burst state picked by a
// k-mask blend, the thresholds of the fired cells compressed alongside
// their indices (EMIT8).
TEXT ·fireCellsBurst64AVX512(SB), NOSPLIT, $0-80
	MOVQ         v+0(FP), DI
	MOVQ         h+8(FP), SI
	MOVQ         ev+16(FP), R10
	MOVQ         n+24(FP), R11
	MOVQ         bias+32(FP), R14
	MOVQ         period+40(FP), R9
	VBROADCASTSD bsc+48(FP), Z11
	VBROADCASTSD beta+56(FP), Z13
	VBROADCASTSD vth+64(FP), Z14
	MOVQ         $0x3FF0000000000000, DX // 1.0
	VPBROADCASTQ DX, Z15
	LEAQ         (R14)(R9*8), R9  // bias end
	MOVQ         R14, R12         // bias cursor
	MOVQ         R10, R15         // first event
	FIRE512_SETUP

zbloop:
	TESTQ   R11, R11
	JZ      zbdone
	VMOVUPD (DI), Z1
	TESTQ   R14, R14
	JZ      zbnobias
	VMULPD  (R12), Z11, Z2        // bias * bsc, rounded once
	VADDPD  Z2, Z1, Z1
	ADDQ    $64, R12
	CMPQ    R12, R9
	CMOVQEQ R14, R12              // wrap at the period

zbnobias:
	VMOVUPD     (SI), Z2          // g
	VMULPD      Z14, Z2, Z3       // th = g * vth
	VCMPPD      $2, Z1, Z3, K1    // fired = th <= v
	VMULPD      Z2, Z13, Z2       // beta * g
	VBLENDMPD   Z2, Z15, K1, Z2   // h = fired ? beta*g : 1
	VMOVUPD     Z2, (SI)
	VSUBPD      Z3, Z1, K1, Z1    // v -= th where fired
	VMOVUPD     Z1, (DI)
	VPCOMPRESSQ Z20, K1, Z4       // fired cell indices, packed low
	VCOMPRESSPD Z3, K1, Z5        // their thresholds
	EMIT8(Z5)
	ADDQ        $64, DI
	ADDQ        $64, SI
	SUBQ        $8, R11
	JMP         zbloop

zbdone:
	SUBQ R15, R10
	SHRQ $4, R10
	MOVQ R10, ret+72(FP)
	VZEROUPPER
	RET
