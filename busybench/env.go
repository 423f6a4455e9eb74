package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tickNS is the length of one /proc/stat tick (USER_HZ is 100 on every
// Linux architecture Go supports).
const tickNS = 10_000_000

// cpuTicks reads /proc/stat: the aggregate line's total and steal ticks
// and each CPU's steal ticks, as one vector [total, steal, cpu0 steal,
// cpu1 steal, ...]. ok is false where /proc is unavailable.
func cpuTicks() (ticks []int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") {
			break
		}
		var total int64
		for i, fld := range fields[1:9] {
			v, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return nil, false
			}
			// Fields 1-8 are user, nice, system, idle, iowait, irq,
			// softirq and steal; guest and guest_nice are already
			// counted in user and nice.
			total += v
			if i == 7 && fields[0] == "cpu" {
				ticks = append(ticks, total, v)
			} else if i == 7 {
				ticks = append(ticks, v)
			}
		}
	}
	return ticks, len(ticks) >= 2
}

// stealSample is one reading of the host's CPU tick counters.
type stealSample struct {
	at    time.Time
	ticks []int64 // as cpuTicks returns them
}

// stealSampler reads /proc/stat every stealPeriod while a timed phase
// runs, so that the CPU time the hypervisor stole can be charged to the
// operations it fell on. The counters advance in whole ticks, so a finer
// period adds nothing.
type stealSampler struct {
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

const stealPeriod = 10 * time.Millisecond

func startStealSampler() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.read()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(stealPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.read()
			case <-s.stop:
				s.read()
				return
			}
		}
	}()
	return s
}

func (s *stealSampler) read() {
	if ticks, ok := cpuTicks(); ok {
		s.samples = append(s.samples, stealSample{at: time.Now(), ticks: ticks})
	}
}

// finish stops the sampler and waits for it.
func (s *stealSampler) finish() {
	close(s.stop)
	<-s.done
}

// counters returns the tick counters at t, interpolated linearly between
// the readings around it and clamped to the first and last reading.
func (s *stealSampler) counters(t time.Time) []float64 {
	i := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].at.After(t) })
	a, b, f := s.samples[max(i-1, 0)], s.samples[min(i, len(s.samples)-1)], 0.0
	if b.at.After(a.at) {
		f = float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	}
	out := make([]float64, min(len(a.ticks), len(b.ticks)))
	for k := range out {
		out[k] = float64(a.ticks[k]) + f*float64(b.ticks[k]-a.ticks[k])
	}
	return out
}

// deltas returns the counters' growth from from to to; nil without two
// readings.
func (s *stealSampler) deltas(from, to time.Time) []float64 {
	if s == nil || len(s.samples) < 2 {
		return nil
	}
	a, b := s.counters(from), s.counters(to)
	for k := range a {
		a[k] = b[k] - a[k]
	}
	return a
}

// share returns the share of the machine's CPU time stolen between from
// and to.
func (s *stealSampler) share(from, to time.Time) float64 {
	d := s.deltas(from, to)
	if len(d) < 2 || d[0] <= 0 {
		return 0
	}
	return d[1] / d[0]
}

// stall returns the CPU time, in ns, stolen between from and to from the
// CPU that lost the most.
func (s *stealSampler) stall(from, to time.Time) int64 {
	d := s.deltas(from, to)
	var most float64
	for k := 2; k < len(d); k++ {
		most = max(most, d[k])
	}
	return int64(most * tickNS)
}

// involuntarySwitches returns the process's involuntary context switches
// so far, over all its threads.
func involuntarySwitches() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Nivcsw
}

// vmHWM returns the process's peak resident set size in MB.
func vmHWM() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}
