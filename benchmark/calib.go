package main

import (
	"sort"
	"syscall"
	"time"
)

// The reference machine is a couple of virtual CPUs on a busy host. The same
// code runs up to a fifth slower for seconds or minutes at a time while a
// neighbour keeps the core's other hardware thread busy (no steal time shows:
// the whole core just gets slower), so a raw latency says as much about the
// neighbours as about the program. A calibrator times a fixed compute kernel
// of the benchmark's own between operations, and the computing part of every
// reported time is divided by how much slower than calibRef the kernel ran
// next to it: times read "at reference speed". The kernel shares no code
// with the program, so a change to the program cannot move it.
const (
	// The kernel: calibSweeps products of a calibDim × calibDim matrix with
	// its transpose, row against column. 72 KB: it lives in the second-level
	// cache and mixes floating-point work with strided loads, as the solver's
	// dense eigen kernels and CSR walks do.
	calibDim    = 96
	calibSweeps = 40
	// calibRef is what one kernel run takes on the quiet reference machine.
	calibRef = 250 * time.Microsecond
	// calibEvery is the least time between two kernel runs of one caller:
	// at most 2.5 % of a caller's time goes into calibration.
	calibEvery = 10 * time.Millisecond
	// calibNear is how many kernel runs nearest in time decide the speed at an
	// instant; their median, so one run an interrupt landed in is ignored.
	calibNear = 3
)

// calibrator belongs to one caller goroutine: the kernel runs on the caller's
// own thread, between its operations, never inside a timed span.
type calibrator struct {
	a      []float64
	sink   float64
	origin time.Time
	last   time.Time
	at     []time.Duration // since origin, ascending
	took   []time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{a: make([]float64, calibDim*calibDim), origin: time.Now()}
	for i := range c.a {
		c.a[i] = float64(i%17) * 0.1
	}
	return c
}

// kernel runs the kernel once and returns how long it took.
func (c *calibrator) kernel() time.Duration {
	const n = calibDim
	start := time.Now()
	s := 0.0
	for it := 0; it < calibSweeps; it++ {
		for i := 0; i < n; i++ {
			row := c.a[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				s += row[j] * c.a[j*n+i]
			}
		}
	}
	c.sink += s
	return time.Since(start)
}

// tick records one kernel run if the last one is calibEvery old. Callers
// call it after every operation.
func (c *calibrator) tick() {
	now := time.Now()
	if now.Sub(c.last) < calibEvery {
		return
	}
	c.last = now
	c.at = append(c.at, now.Sub(c.origin))
	c.took = append(c.took, c.kernel())
}

// slowdown is how much slower than the reference the machine ran at time t:
// the median of the calibNear recorded kernel runs nearest to t, over
// calibRef. 1 when nothing was recorded.
func (c *calibrator) slowdown(t time.Time) float64 {
	n := len(c.at)
	if n == 0 {
		return 1
	}
	off := t.Sub(c.origin)
	// The calibNear samples around the first one not before t: for an
	// operation that began at t, the run before it, the run after it and the
	// one after that.
	i := sort.Search(n, func(k int) bool { return c.at[k] >= off })
	lo := i - calibNear/2
	if lo > n-calibNear {
		lo = n - calibNear
	}
	if lo < 0 {
		lo = 0
	}
	hi := lo + calibNear
	if hi > n {
		hi = n
	}
	near := make([]float64, 0, calibNear)
	for _, d := range c.took[lo:hi] {
		near = append(near, float64(d))
	}
	return median(near) / float64(calibRef)
}

// atReference is the duration d, measured at time t, at reference speed.
// computing is the share of d that was spent computing, which a slow machine
// stretches; the rest was spent waiting on a timer, which it does not.
func (c *calibrator) atReference(t time.Time, d time.Duration, computing float64) time.Duration {
	return time.Duration(float64(d) * (1 - computing + computing/c.slowdown(t)))
}

// kernelSeconds is the time the recorded kernel runs took together.
func (c *calibrator) kernelSeconds() float64 {
	var sum time.Duration
	for _, d := range c.took {
		sum += d
	}
	return sum.Seconds()
}

// cpuSeconds is the CPU time, user and system, the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// computingShare is the share of their waiting the callers of a window spent
// waiting for the CPU rather than for a timer: the CPU time the process used
// over the window, less what the harness itself used, over the time the
// callers waited. About 0.4 for serve_miss, whose requests sit out the
// batcher's BatchWait; 1 for the other serving workloads. Background work
// (the collector, a second solver worker) can push the quotient past 1,
// where it is capped.
func computingShare(cpu, harness, waited float64) float64 {
	share := ratio(cpu-harness, waited)
	if share > 1 {
		return 1
	}
	if share < 0 {
		return 0
	}
	return share
}

// setupBurst is how many kernel runs bracket a set-up on each side.
const setupBurst = 5

// timeSetup runs one set-up and returns its time in seconds at reference
// speed. A set-up has no operations to calibrate between, so the kernel runs
// in an unrecorded burst before and after it and the median decides.
func (c *calibrator) timeSetup(setUp func() error) (float64, error) {
	took := make([]float64, 0, 2*setupBurst)
	burst := func() {
		for i := 0; i < setupBurst; i++ {
			took = append(took, float64(c.kernel()))
		}
	}
	burst()
	start := time.Now()
	err := setUp()
	raw := time.Since(start)
	burst()
	return raw.Seconds() / (median(took) / float64(calibRef)), err
}

// medianKernelUs is the median recorded kernel run, in microseconds.
func (c *calibrator) medianKernelUs() float64 {
	took := make([]float64, len(c.took))
	for i, d := range c.took {
		took[i] = us(d)
	}
	return median(took)
}
