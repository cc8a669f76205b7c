package main

import (
	"sort"
	"time"
)

// Speed calibration.
//
// The machine this was tuned on (a shared 2-vCPU VM, 2.1 GHz Xeon) changes
// speed for seconds at a time, with almost no CPU steal: over 50 s of
// back-to-back Search calls on one index, the median call time of
// successive 0.7 s stretches ranged from 465 to 681 us. A fixed arithmetic
// probe taken between the calls followed it: the ratio of the two stayed
// between 6.5 and 7.7 in all but three of the stretches. So the phases
// interleave the probe with their calls. The calls are grouped into windows
// of windowProbes probes, and each call's latency is scaled by probeRef
// over its window's median probe time: the figures are times at the
// machine speed at which the probe takes probeRef. The reference is a
// constant, not the run's own fastest probe, because that fastest probe is
// an extreme value: over five runs it ranged from 47 to 62 us.
//
// The probe runs once untimed and once timed, so that it is timed on a warm
// cache whatever the call before it touched, and in the ingest phase the
// reader is held off while the writer probes, so that the probe times the
// machine and not the program. A change to the program therefore moves the
// calibrated figures as it moves the raw ones; the raw figures go in the
// provenance line. setup_s stays raw: probes around a build followed its
// time worse than none did.

const (
	probeRef     = 60 * time.Microsecond // the probe's time at full speed on the tuning machine
	windowProbes = 10                    // probes per calibration window
	probeRows    = 4096                  // 4096 rows of 8 float32: 128 KiB, a LUT-sized table
)

var probeBook = func() []float32 {
	b := make([]float32, probeRows*8)
	for i := range b {
		b[i] = float32(i%251) * 0.01
	}
	return b
}()

// probeSink keeps the compiler from dropping the probe's work.
var probeSink float32

// probeWork is a fixed amount of arithmetic: squared distances from a few
// points to every row of a small table, the shape of a LUT fill.
func probeWork() {
	var best float32
	for r := 0; r < 2; r++ {
		var q [8]float32
		for j := range q {
			q[j] = float32(r+j) * 0.1
		}
		for c := 0; c < probeRows; c++ {
			row := probeBook[c*8 : c*8+8 : c*8+8]
			var s float32
			for j, x := range row {
				d := x - q[j]
				s += d * d
			}
			if s < best || c == 0 {
				best = s
			}
		}
	}
	probeSink += best
}

// probe warms the probe's table and then times one run of it.
func probe() time.Duration {
	probeWork()
	t := time.Now()
	probeWork()
	return time.Since(t)
}

// calibrated is every call's latency scaled by probeRef over the median
// probe time of its window, or as observed when raw is set.
func (s *sample) calibrated(raw bool) []time.Duration {
	scale := make([]float64, len(s.probes))
	for w, ps := range s.probes {
		scale[w] = 1
		if !raw && len(ps) > 0 {
			scale[w] = float64(probeRef) / float64(medianDuration(ps))
		}
	}
	out := make([]time.Duration, len(s.lat))
	for i, d := range s.lat {
		out[i] = d
		if w := s.win[i]; w >= 0 {
			out[i] = time.Duration(float64(d) * scale[w])
		}
	}
	return out
}

// medianProbe is the median of all the probes a sample took.
func (s *sample) medianProbe() time.Duration {
	var all []time.Duration
	for _, w := range s.probes {
		all = append(all, w...)
	}
	if len(all) == 0 {
		return 0
	}
	return medianDuration(all)
}

func medianDuration(v []time.Duration) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
