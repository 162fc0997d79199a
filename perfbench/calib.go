package main

import (
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared virtual machines whose
// effective CPU speed drifts by up to 2x within seconds. Every timing
// is therefore scaled to a reference speed. A fixed calibration kernel
// runs on every P next to each measured interval, and the interval is
// multiplied by calNominal over the kernel's time. A code change moves
// the scaled number as it moves the raw one; a slow phase of the
// machine slows the kernel too and cancels out. calNominal is about
// what the kernel takes on the machines the benchmark was written on,
// so scaled times read close to raw ones there.
const calNominal = time.Millisecond

// calBufs gives each kernel goroutine its own table, sized to stay in
// L1/L2 like the engine's hot state.
var (
	calBufs [64][1 << 14]uint32
	calSink [64]uint64
)

// calKernel has two parts. The first, about four fifths of its time,
// steps eight independent xorshift chains, so it is bound by the core's
// instruction throughput; the second steps one chain and scatters it
// into a table, so it is bound by latency. The drift to track is mostly
// other tenants on the same physical cores, and it costs
// throughput-bound code far more than latency-bound code. Over six runs
// of each workload on a 2-vCPU shared VM, the run medians of request
// times had a standard deviation of 7.5% raw, averaged over workloads
// and metrics; 3.8% scaled by the latency part alone, 3.3% by the
// throughput part alone, and 2.9% by this mix.
func calKernel(k int) {
	a, b, c, d := uint64(k)+1, uint64(2), uint64(3), uint64(4)
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 60000; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
		e ^= e << 13
		e ^= e >> 7
		e ^= e << 17
		f ^= f << 13
		f ^= f >> 7
		f ^= f << 17
		g ^= g << 13
		g ^= g >> 7
		g ^= g << 17
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
	}
	x := a + b + c + d + e + f + g + h
	t := &calBufs[k%len(calBufs)]
	for i := 0; i < 60000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&(1<<14-1)] += uint32(x)
	}
	calSink[k%len(calSink)] = x
}

// calibrate runs the kernel once on every P at the same time and
// returns how long that took.
func calibrate() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calKernel(k)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// scale converts raw durations measured between two calibrations into
// reference-speed durations.
func scale(before, after time.Duration) float64 {
	return float64(calNominal) / (float64(before+after) / 2)
}
