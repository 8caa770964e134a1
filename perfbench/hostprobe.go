package main

import (
	"errors"
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe measures how fast the machine's memory system runs at
// the moment, with code that does not depend on the program under test.
// On a shared host, neighbours contending for the last-level cache and
// memory slow the campaign workloads by up to a third for minutes at a
// time; the probe, run after every round, slows with them, so rescaling
// each round's throughput by the probe's time cancels the host's state
// and leaves the program's.
const (
	// probeWords is each probe table's size: 16 MiB of float64, far
	// beyond any per-core cache.
	probeWords = 1 << 21
	// probeIters is one pass's random read-modify-writes per table.
	probeIters = 1 << 21
	// probeRefNs is the access time episodes_per_s is scaled to: about
	// the probe's median on the two-vCPU host the bounds were set on.
	probeRefNs = 30.0
)

// hostProbe holds one table per worker, mapped outside the Go heap so
// that neither the live-heap figure nor the collector's pacing sees it.
type hostProbe struct {
	maps [][]byte
	tabs [][]float64
	sums []float64
}

func newHostProbe(n int) (*hostProbe, error) {
	p := &hostProbe{sums: make([]float64, n)}
	for i := 0; i < n; i++ {
		b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, errors.Join(err, p.close())
		}
		p.maps = append(p.maps, b)
		tab := unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), probeWords)
		for j := range tab {
			tab[j] = float64(j%97) * 0.01
		}
		p.tabs = append(p.tabs, tab)
	}
	return p, nil
}

func (p *hostProbe) close() error {
	var errs []error
	for _, b := range p.maps {
		errs = append(errs, syscall.Munmap(b))
	}
	p.maps, p.tabs = nil, nil
	return errors.Join(errs...)
}

// accessNs runs one pass over every table at once, one goroutine each as
// the workload runs one worker per processor, and returns the pass's
// wall time per access.
func (p *hostProbe) accessNs() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, tab := range p.tabs {
		wg.Add(1)
		go func(i int, tab []float64) {
			defer wg.Done()
			p.sums[i] = probePass(tab)
		}(i, tab)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / probeIters
}

// probePass is float arithmetic over data-dependent loads and stores at
// random places in tab: the cache-missing mix of a simulation step.
func probePass(tab []float64) float64 {
	mask := uint64(len(tab) - 1)
	x := uint64(0x9e3779b97f4a7c15)
	acc := 0.0
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		v := tab[j]*0.999 + math.Sqrt(math.Abs(acc)+1)*1e-3
		tab[j] = v
		acc += v
		if acc > 1e6 {
			acc *= 1e-3
		}
	}
	return acc
}
