package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rodsp/internal/obs"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the linearly interpolated p-quantile of xs (p in [0,1]),
// 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	qs, _ := obs.Quantiles(xs, p*100)
	return qs[0]
}

// calmLow and calmHigh summarize one metric's per-window samples by the
// value a tenth of the way in from the good end: the first decile of a
// lower-is-better metric, the ninth of a higher-is-better one. Interference
// from the host (a paused vCPU, a busy sibling thread, a neighbour's burst)
// only ever makes a window slower, and on a shared host it reaches most
// windows of some runs, so the median over windows moves with the host; the
// calm tenth of a run is what repeats from run to run. A change to the code
// moves calm windows as much as any other.
func calmLow(xs []float64) float64  { return quantile(xs, 0.1) }
func calmHigh(xs []float64) float64 { return quantile(xs, 0.9) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// cpuNow returns the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the aggregate cpu line of /proc/stat and returns the steal
// ticks and the total ticks; ok is false where /proc/stat is unreadable.
func hostTicks() (steal, total float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, fld := range fields[1:] {
		v, err := strconv.ParseFloat(fld, 64)
		if err != nil {
			return 0, 0, false
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// the guest columns are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShareSince returns the share of host CPU time stolen from this VM
// since an earlier hostTicks reading, 0 where /proc/stat is unreadable.
func stealShareSince(steal0, total0 float64, ok0 bool) float64 {
	steal1, total1, ok1 := hostTicks()
	if !ok0 || !ok1 || total1 <= total0 {
		return 0
	}
	return (steal1 - steal0) / (total1 - total0)
}

// fsTypeOf names the filesystem holding path, by its statfs magic number.
func fsTypeOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
