package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// On a virtual machine the host can take the CPUs away for seconds at a
// time. The guest sees it as steal time in /proc/stat, and a phase it
// happens to is a measurement of the host, not of the program: in the
// builder's sets a minute of 50–80 % steal cut throughput to a fifth and
// put seconds on every latency. Steal does not depend on the code under
// test, so a phase that saw more than stealLimit of it is played again.

const (
	stealLimit   = 0.02             // share of CPU time stolen in a window before it is played again
	calmWait     = 20 * time.Second // how long a replay waits for the host to settle
	replayBudget = 3                // replays per pass
)

// cpuJiffies reads the machine-wide CPU counters: time stolen by the
// hypervisor and total time, in clock ticks. Both are 0 where /proc/stat
// does not exist or has no steal column, which turns replaying off.
func cpuJiffies() (stolen, total uint64) {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already inside user time.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(stolen0, total0, stolen1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(stolen1-stolen0) / float64(total1-total0)
}

// awaitCalm waits until a one-second window passes with steal under the
// limit, or calmWait is over.
func awaitCalm() {
	for deadline := time.Now().Add(calmWait); time.Now().Before(deadline); {
		s0, t0 := cpuJiffies()
		time.Sleep(time.Second)
		s1, t1 := cpuJiffies()
		if stealShare(s0, t0, s1, t1) <= stealLimit {
			return
		}
	}
}
