//go:build !amd64 || purego

package mat

// Off amd64, and under the purego build tag, the kernels run their Go
// twins.
const (
	dotTier  = tierGo
	tanhTier = tierGo
)

func vecMatAVX2(dst, x, wt, b []float64, stride int)      { panic("mat: no vector kernel") }
func vecMatAVX512(dst, x, wt, b []float64, stride int)    { panic("mat: no vector kernel") }
func midRadAVX2(c2, r2, c, r, wt []float64, stride int)   { panic("mat: no vector kernel") }
func midRadAVX512(c2, r2, c, r, wt []float64, stride int) { panic("mat: no vector kernel") }
func tanhAVX2(dst, src []float64)                         { panic("mat: no vector kernel") }
func tanhAVX512(dst, src []float64)                       { panic("mat: no vector kernel") }
