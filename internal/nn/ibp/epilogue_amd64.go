//go:build amd64 && !purego

package ibp

// tanhEpilogueAVX2 is epilogue's AVX2 kernel for a tanh layer, for
// len(c) a multiple of 4 (b, rowsum and gb hold at least len(c) values).
// It returns the largest radius when point is set and 0 otherwise.  It
// needs finite pre-activation bounds, which PredictIntervalInto
// guarantees: its input bounds are checked finite and maxReach keeps
// every sum below overflow.  On a NaN bound the two would part: Go's min
// keeps the NaN and the twin's table index panics, while VMINPD returns
// 20 and the kernel a finite bound.
//
//go:noescape
func tanhEpilogueAVX2(c, r, b, rowsum, gb []float64, s float64, point bool) float64

// tanhEpilogueAVX512 is tanhEpilogueAVX2 on eight rows at a time, for
// len(c) a multiple of 8, under the same preconditions.
//
//go:noescape
func tanhEpilogueAVX512(c, r, b, rowsum, gb []float64, s float64, point bool) float64
