package main

// The shared machine this benchmark runs on changes speed by tens of
// percent over minutes, and every workload speeds up and slows down
// together. Each untraced run therefore also times a fixed calibration
// kernel, interleaved with its measured phases, and reports times as they
// would read at reference speed: measured × calibrationRef / the run's
// median calibration time. The kernel is self-contained — it calls no
// code of the program — so a change to the program moves the measured
// phases but never the calibration. The raw values and the factor are in
// the run's record line.

// calibrationRef is the calibration kernel's time, in seconds, at the
// reference speed (its median on the machine the bounds were set on).
const calibrationRef = 0.08

// calTableBits sizes the kernel's table (1 MiB): larger than the private
// caches, like the predictor tables the engines walk.
const calTableBits = 20

// calIters is the kernel's length: about calibrationRef at reference
// speed.
const calIters = 6_000_000

// calibrationKernel is a pseudo-random walk over a table of saturating
// 2-bit counters: dependent loads, data-dependent branches and stores,
// the instruction mix of the predictor kernels.
func calibrationKernel(table []uint8) uint64 {
	x, acc := uint64(0x9e3779b97f4a7c15), uint64(0)
	mask := uint64(len(table) - 1)
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		c := table[j]
		if x>>63 == 1 {
			if c < 3 {
				c++
			}
		} else if c > 0 {
			c--
		}
		table[j] = c
		acc += uint64(c)
	}
	return acc
}

// speed collects calibration samples over a run.
type speed struct {
	table   []uint8
	samples []float64
	sink    uint64
}

func newSpeed() *speed { return &speed{table: make([]uint8, 1<<calTableBits)} }

// sample times the calibration kernel n times.
func (s *speed) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := now()
		s.sink += calibrationKernel(s.table)
		s.samples = append(s.samples, now()-t0)
	}
}

// factor converts this run's measured times to reference-speed times.
func (s *speed) factor() float64 { return calibrationRef / median(s.samples) }
