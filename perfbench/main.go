// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the public adaptive API — a closed-loop bulk
// transfer and an open-loop media mix over UDP loopback, and a 1000-session
// mixed soak in the simulator — checks every delivered message, and prints
// each metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation in the stack's path. With -trace 1 the run measures the
// workload twice, untraced and then behind the timing tap (tap.go), and
// reports the per-layer metrics of the traced pass together with the
// layer-alone ledger (ledger.go) and the tracing overhead.
//
// From the repository root (run.py builds the program under .bench_build/):
//
//	python3 perfbench/run.py --workload live-bulk --seed 1 --seconds 10 --trace 0
//
// The module tests (the tap changes nothing the stack does; segments and
// streams are checked) run with `go test ./...` inside perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"adaptive/internal/wire"
)

// runCfg is what a workload is given.
type runCfg struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// result is one measured pass of a workload.
type result struct {
	setupS    []float64 // wall seconds of each set-up
	win       window    // the measured window
	lat       latencies // one-way latency of messages completed in the window
	genLateUs []float64 // open loop: how late each send ran behind its schedule
	offered   uint64    // messages offered over the whole pass
	failed    uint64    // of those, not delivered intact by the end of the drain
	corrupt   uint64    // delivered segments that failed their check
	problems  []string  // output checks that failed
	specs     map[string]string
	// fingerprint is sim-mixed's virtual-time fingerprint; any two passes
	// of one seed must agree on it, traced or not.
	fingerprint string

	// Traced passes only.
	agg    spanAgg   // spans within the window, over every loop
	retx   uint64    // retransmissions within the window
	layers metrics   // per-layer metrics the workload measured itself
	pdus   [][]byte  // sample of PDUs sent, for the ledger
	spans  []spanRec // span log of the first loop
	live   bool      // the provider is udpnet
}

type workload struct {
	name string
	run  func(runCfg) (*result, error)
	// procs, when set, is the workload's GOMAXPROCS. The live stack runs
	// on one event loop goroutine; on one P its wake-ups stay on one
	// vCPU, where with two, cross-vCPU wake-ups on a small VM made CPU per
	// PDU and set-up time swing by a third from run to run.
	procs int
}

var workloads = []workload{
	{"live-bulk", runLiveBulk, 1},
	{"live-media", runLiveMedia, 1},
	{"sim-mixed", runSimMixed, 0},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: live-bulk, live-media or sim-mixed")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 10, "length of the measured window, in seconds")
		trace   = flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
		spans   = flag.String("spans", "", "traced pass: write the span log to this file")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload live-bulk|live-media|sim-mixed -seed N -seconds N -trace 0|1")
		os.Exit(2)
	}
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	cfg := runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	printMeta(wl.name, cfg, *trace)

	base, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	e2e := endToEnd(base)
	printSpecs(base.specs)
	printMetrics("end-to-end", e2e)
	fmt.Printf("%-32s %16d count (latency samples over %d slices of %v)\n", "msg_lat_samples", base.lat.count(), len(base.lat.by), sliceLen)
	fmt.Printf("%-32s %16.6g ratio\n", "msg_fail_frac", ratio(float64(base.failed), float64(base.offered)))
	fmt.Printf("%-32s %16.6g us\n", "gen_late_p90_us", quantile(base.genLateUs, 0.9))
	out := e2e
	res := base
	if *trace == 1 {
		cfg.traced = true
		tr, err := wl.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", wl.name, err)
			os.Exit(1)
		}
		if tr.agg.count[spanAppSend] == 0 || tr.agg.rxPkts == 0 {
			tr.problems = append(tr.problems, "traced pass recorded no spans")
		}
		if tr.fingerprint != base.fingerprint {
			tr.problems = append(tr.problems, fmt.Sprintf("traced fingerprint %s, untraced %s", tr.fingerprint, base.fingerprint))
		}
		out = perLayer(base, tr)
		printMetrics("per-layer", out)
		printLedger(base, tr, out)
		if *spans != "" {
			if err := writeSpans(*spans, tr.spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
		}
		res = merge(base, tr)
	}
	for _, p := range res.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	correct := len(res.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.offered,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// merge folds the traced pass's accounting into the untraced one: both
// passes count toward attempted, failed and the output checks.
func merge(a, b *result) *result {
	m := *a
	m.offered += b.offered
	m.failed += b.failed
	m.problems = append(append([]string(nil), a.problems...), b.problems...)
	return &m
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// endToEnd reports rates and CPU as medians over the window's slices;
// allocations, a count that moves in pool-refill bursts after each
// collection, over the whole window.
func endToEnd(r *result) metrics {
	w := &r.win
	tot := w.total()
	return metrics{
		"goodput_mbps":   {w.sliceMedian(func(iv interval) float64 { return float64(iv.good) * 8 / iv.wall.Seconds() / 1e6 }), "Mbps"},
		"pkts_per_s":     {w.sliceMedian(func(iv interval) float64 { return float64(iv.pkts) / iv.wall.Seconds() }), "1/s"},
		"cpu_ns_per_pkt": {cpuPerPkt(r), "ns"},
		"allocs_per_pkt": {ratio(float64(tot.mallocs), float64(tot.pkts)), "count"},
		"heap_inuse_mb":  {float64(w.heapInuse) / (1 << 20), "MB"},
		"msg_lat_p50_us": {r.lat.quantile(0.5), "us"},
		"msg_lat_p90_us": {r.lat.quantile(0.9), "us"},
		"setup_s":        {quantile(r.setupS, 0.5), "s"},
	}
}

func cpuPerPkt(r *result) float64 {
	return r.win.sliceMedian(func(iv interval) float64 { return ratio(float64(iv.cpu.Nanoseconds()), float64(iv.pkts)) })
}

// perLayer turns the traced pass into the per-layer metrics; base is the
// untraced pass of the same run, the reference for the tracing overhead.
func perLayer(base, tr *result) metrics {
	a := tr.agg
	tot := tr.win.total()
	pkts := float64(tot.pkts)
	wallNs := float64(tot.wall.Nanoseconds())
	var all, ctrl uint64
	for typ, n := range a.sentByType {
		all += n
		if wire.Type(typ) != wire.TData && wire.Type(typ) != wire.TParity {
			ctrl += n
		}
	}
	data := float64(a.sentByType[wire.TData])
	var spanSelf int64
	for _, s := range a.self {
		spanSelf += s
	}
	cpu, baseCPU := cpuPerPkt(tr), cpuPerPkt(base)
	spanPerPkt := ratio(float64(spanSelf), pkts)
	selfPer := func(k spanKind) float64 { return ratio(float64(a.self[k]), float64(a.count[k])) }

	m := metrics{
		"session.send_self_ns":          {selfPer(spanAppSend), "ns"},
		"protograph.rx_self_ns_per_pkt": {ratio(float64(a.self[spanRx]), float64(a.rxPkts)), "ns"},
		"protograph.rx_pkts_per_upcall": {ratio(float64(a.rxPkts), float64(a.rxUpcalls)), "count"},
		"reliable.retx_per_kpkt":        {ratio(float64(tr.retx)*1000, pkts), "count"},
		"reliable.ctrl_per_data":        {ratio(float64(ctrl), data), "ratio"},
		"session.useful_frac":           {ratio(data-float64(tr.retx), float64(all)), "ratio"},
		"event.timer_arms_per_pkt":      {ratio(float64(a.timerArms), pkts), "count"},
		"event.timer_fired_frac":        {ratio(float64(a.timerFires), float64(a.timerArms)), "ratio"},
		"event.timer_self_ns":           {selfPer(spanTimer), "ns"},
		"udpnet.send_ns_per_frame":      {0, "ns"},
		"udpnet.loop_busy_frac":         {0, "ratio"},
		"runtime.gc_per_s":              {float64(tot.numGC) / tot.wall.Seconds(), "1/s"},
		"runtime.gc_pause_frac":         {ratio(float64(tot.gcPauseNs), wallNs), "ratio"},
		"trace.overhead_frac":           {ratio(cpu-baseCPU, baseCPU), "ratio"},
		"gen.late_p90_us":               {quantile(tr.genLateUs, 0.9), "us"},
		"app.msg_fail_frac":             {ratio(float64(tr.failed), float64(tr.offered)), "ratio"},
		"app.deliver_self_ns":           {selfPer(spanDeliver), "ns"},
		"ledger.span_self_ns_per_pkt":   {spanPerPkt, "ns"},
		"ledger.residual_frac":          {ratio(cpu-spanPerPkt, cpu), "ratio"},
	}
	if tr.live {
		m["udpnet.send_ns_per_frame"] = metric{selfPer(spanProvSend), "ns"}
		m["udpnet.loop_busy_frac"] = metric{ratio(float64(a.rootNs), wallNs), "ratio"}
	}
	for k, v := range tr.layers {
		m[k] = v
	}
	for k, v := range measureLedger(tr.pdus) {
		m[k] = v
	}
	return m
}

func printMetrics(title string, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s\n", title)
	for _, k := range names {
		fmt.Printf("%-32s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printSpecs(specs map[string]string) {
	names := make([]string, 0, len(specs))
	for k := range specs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# spec %s: %s\n", k, specs[k])
	}
}

// printMeta records what the numbers were measured on.
func printMeta(name string, cfg runCfg, trace int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%v trace=%d\n", name, cfg.seed, cfg.seconds.Seconds(), trace)
	fmt.Printf("# go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeSpans(path string, spans []spanRec) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write span log: %w", err)
	}
	return nil
}
