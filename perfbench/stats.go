package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two nearest order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean averages ratios across programs. Ratios that are undefined for a
// program (no denominator, recorded as NaN) or zero are left out, since one
// zero would otherwise erase every other program's value.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 && !math.IsNaN(x) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio is num/den, NaN when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// orZero maps NaN to 0 for printing.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// resetPeakRSS returns freed memory to the OS and restarts the VmHWM peak
// from the current resident size, so work done before (the oracle) does
// not count in the workload's peak.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative number of bytes the program has allocated
// on the heap. Reading it does not stop the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// lcg is the benchmark's own seeded generator for picking names and orders.
type lcg struct{ state uint64 }

func newLCG(seed uint32, stream uint32) *lcg {
	return &lcg{state: uint64(seed)<<32 | uint64(stream)}
}

func (r *lcg) next(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	if n <= 0 {
		return 0
	}
	return int((r.state >> 33) % uint64(n))
}

// perm returns a seeded permutation of 0..n-1.
func (r *lcg) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.next(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
