//go:build !amd64 || purego

package mat

// Off amd64, and under the purego build tag, the kernels run their Go
// twins.
const (
	useAsm     = false
	useAsmTanh = false
)

func midRadAsm(c2, r2, c, r, wt []float64, stride int) { panic("mat: no vector kernel") }
func tanhAsm(dst, src []float64)                       { panic("mat: no vector kernel") }
