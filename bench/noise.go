package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// The noise guard: a fixed calibration kernel and the kernel's steal
// counter. It looks only at these two, never at a measured metric, so
// it cannot bias a result towards a hoped-for value; it labels a noisy
// run (bench.noisy) and never fails one.

const (
	calibWords  = 1 << 18 // 1 MiB of uint32
	calibPasses = 12
	// repNoiseLimit drops a repetition or a serving segment whose
	// bracketing calibrations exceed this multiple of the run's fastest
	// calibration.
	repNoiseLimit = 1.10
	// A serving segment is set aside when steal exceeds stealLimit over
	// it; a traced run is labelled noisy when its calibrations spread
	// wider than calibSpreadLimit.
	calibSpreadLimit = 0.10
	stealLimit       = 0.05
	// segCalibs is how many kernels bracket a serving segment.
	segCalibs = 2
)

var (
	calibArr  [calibWords]uint32
	calibSink uint32
)

// calibrate runs the fixed kernel (an integer mix over a 1 MiB array,
// about 5 ms on the reference box) and returns its wall time. The time
// depends only on how much of a core the process really got.
func calibrate() time.Duration {
	start := time.Now()
	x := uint32(2463534242)
	for p := 0; p < calibPasses; p++ {
		for i := range calibArr {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			calibArr[i] = calibArr[i]*1664525 + x
		}
	}
	calibSink += calibArr[x%calibWords]
	return time.Since(start)
}

// calibrateMin takes the fastest of n kernels: one sample can be hit by
// a single preemption, the minimum of three says how fast the core is.
func calibrateMin(n int) time.Duration {
	best := calibrate()
	for i := 1; i < n; i++ {
		if d := calibrate(); d < best {
			best = d
		}
	}
	return best
}

// cpuTicks reads the aggregate line of /proc/stat: steal and total
// jiffies. ok is false where the file does not exist (not Linux).
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of CPU time the hypervisor took from
// this machine over a section.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

func (m stealMeter) share() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// peakRSSMB reads VmHWM from /proc/self/status (0 where unavailable).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, found := bytes.CutPrefix(line, []byte("VmHWM:")); found {
			f := bytes.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(string(f[0]), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// noise summarizes what the guard saw over a run.
type noise struct {
	calibMin    time.Duration
	calibSpread float64 // (max-min)/min over the kept section's calibrations
	stealShare  float64
	repsDropped int
	noisy       bool
}

// guardedReps runs rep(slot) for slots 0..want-1, each bracketed by
// calibrations. A repetition whose slower bracket exceeds repNoiseLimit
// times the fastest calibration seen so far is redone, the calmer try
// kept, until 2*want repetitions were spent in all; a slot that is
// still over the limit then labels the run noisy. It returns one
// duration per slot.
func guardedReps(want int, rep func(slot int) time.Duration) ([]time.Duration, noise) {
	meter := startSteal()
	prev := calibrateMin(3)
	n := noise{calibMin: prev}
	out := make([]time.Duration, want)
	worst := prev // slowest bracket among the kept repetitions
	spent := 0
	for slot := 0; slot < want; slot++ {
		var best time.Duration
		for try := 0; ; try++ {
			d := rep(slot)
			spent++
			next := calibrateMin(3)
			bracket := max(prev, next)
			prev = next
			n.calibMin = min(n.calibMin, next)
			if try == 0 || bracket < best {
				out[slot], best = d, bracket
			}
			calm := float64(best) <= repNoiseLimit*float64(n.calibMin)
			if calm || spent-slot-1 >= want {
				n.noisy = n.noisy || !calm
				break
			}
		}
		worst = max(worst, best)
	}
	n.repsDropped = spent - want
	n.calibSpread = float64(worst-n.calibMin) / float64(n.calibMin)
	n.stealShare = meter.share()
	return out, n
}

// calmSegments is the guard over a serving run: it keeps the segments
// whose bracketing calibrations stayed within repNoiseLimit of the
// run's fastest and whose steal stayed under stealLimit. Like the rest
// of the guard it sees calibration and steal only, never a latency. A
// run with fewer than a quarter of its segments calm is reported whole
// and labelled noisy.
func calmSegments(segs []segment) (kept []segment, n noise) {
	n.calibMin = segs[0].calib
	for _, s := range segs {
		n.calibMin = min(n.calibMin, s.calib)
	}
	for _, s := range segs {
		if float64(s.calib) <= repNoiseLimit*float64(n.calibMin) && s.steal <= stealLimit {
			kept = append(kept, s)
		}
	}
	n.repsDropped = len(segs) - len(kept)
	if 4*len(kept) < len(segs) {
		kept, n.noisy = segs, true
	}
	var wall time.Duration
	worst := n.calibMin
	for _, s := range kept {
		worst = max(worst, s.calib)
		wall += s.wall
		n.stealShare += s.steal * float64(s.wall)
	}
	n.stealShare /= float64(wall)
	n.calibSpread = float64(worst-n.calibMin) / float64(n.calibMin)
	return kept, n
}
