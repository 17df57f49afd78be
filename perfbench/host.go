package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct {
	ok                 bool
	total, idle, steal uint64
}

// readCPUTicks reads /proc/stat. Where it is unreadable the host
// record says so and the host metrics read 0; no other metric uses it.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return cpuTicks{}
	}
	return parseCPUTicks(line)
}

// parseCPUTicks parses "cpu user nice system idle iowait irq softirq
// steal ...". Guest time is already inside user and nice, so the total
// stops at steal.
func parseCPUTicks(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = n
	}
	t := cpuTicks{ok: true, idle: v[3] + v[4], steal: v[7]}
	for _, n := range v {
		t.total += n
	}
	return t
}

// shares returns the fractions of host CPU time between a and b that
// were stolen by the hypervisor and that were busy in this guest.
func (a cpuTicks) shares(b cpuTicks) (steal, busy float64) {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0, 0
	}
	total := float64(b.total - a.total)
	steal = float64(b.steal-a.steal) / total
	busy = 1 - float64(b.idle-a.idle)/total - steal
	return steal, busy
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostRecord identifies the machine a run measured, so a noisy run can
// be recognised afterwards. It is printed, never folded into a metric.
// On a shared VM, total ticks well short of wall_s · nproc · 100 (the
// usual tick rate) can show time the guest lost without seeing it as
// steal.
type hostRecord struct {
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	WallS      float64 `json:"wall_s"`
	ProcStat   bool    `json:"proc_stat"`
	StealTicks uint64  `json:"steal_ticks"`
	TotalTicks uint64  `json:"total_ticks"`
}

func (b *bench) host() hostRecord {
	h := hostRecord{
		Nproc:      runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		WallS:      b.wall.Seconds(),
		ProcStat:   b.hostStart.ok && b.hostEnd.ok,
	}
	if h.ProcStat {
		h.StealTicks = b.hostEnd.steal - b.hostStart.steal
		h.TotalTicks = b.hostEnd.total - b.hostStart.total
	}
	return h
}

func printHost(w io.Writer, h hostRecord) {
	data, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Fprintf(w, "host %s\n", data)
}
