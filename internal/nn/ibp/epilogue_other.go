//go:build !amd64 || purego

package ibp

// Off amd64, and under the purego build tag, epilogueTier is tierGo and
// the epilogue runs its Go twin.
func tanhEpilogueAVX2(c, r, b, rowsum, gb []float64, s float64, point bool) float64 {
	panic("ibp: no vector kernel")
}

func tanhEpilogueAVX512(c, r, b, rowsum, gb []float64, s float64, point bool) float64 {
	panic("ibp: no vector kernel")
}
