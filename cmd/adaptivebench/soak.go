package main

// The -soak mode: a long E10 run with the live observability plane attached,
// gating on the two things only wall-clock time can reveal — memory growth
// and result drift. Each iteration re-runs the deterministic sharded soak
// into the shared plane; between iterations the harness scrapes its own
// /metrics endpoint (the same surface an operator would), forces a GC, and
// samples RSS. It fails when
//
//   - any iteration's result fingerprint differs from the first (the
//     fingerprint renders the p50/p999/jitter quantiles in exact hex, so
//     this is also the p999-drift gate), or
//   - RSS grows past an archive-aware allowance (the in-process trace
//     archive grows linearly by design; everything else must plateau), or
//   - the trace stream dropped chunks, or a scrape fails.
//
// It prints "SOAK_ENDPOINT=http://<addr>" on stdout as soon as the endpoint
// is up so a driver script can attach a tail client, and writes
// <prefix>summary.json, <prefix>metrics.json, and (with -trace-out) the
// streamed archive for a trace.Diff against the tail's recording.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"adaptive/internal/experiment"
	"adaptive/internal/trace"
)

type soakConfig struct {
	sessions int
	iters    int
	buffer   int
	sample   uint64
	listen   string
	waitTail time.Duration
	traceOut string
	prefix   string
	allowMB  float64
}

type soakIterRow struct {
	Iter        int     `json:"iter"`
	Delivered   uint64  `json:"delivered"`
	Events      uint64  `json:"events"`
	WallMS      float64 `json:"wall_ms"`
	PktsPerSec  float64 `json:"pkts_per_sec"`
	RSSMB       float64 `json:"rss_mb"`
	HeapMB      float64 `json:"heap_mb"`
	ArchiveRecs uint64  `json:"archive_records"`
	ScrapeBytes int     `json:"scrape_bytes"`
	Fingerprint string  `json:"fingerprint"`
}

type soakSummary struct {
	Sessions      int           `json:"sessions"`
	Iterations    int           `json:"iterations"`
	Sample        uint64        `json:"sample"`
	Endpoint      string        `json:"endpoint,omitempty"`
	Iters         []soakIterRow `json:"iters"`
	BaselineRSSMB float64       `json:"baseline_rss_mb"`
	FinalRSSMB    float64       `json:"final_rss_mb"`
	AllowedMB     float64       `json:"allowed_growth_mb"`
	GrowthMB      float64       `json:"growth_mb"`
	TraceDropped  uint64        `json:"trace_dropped"`
	Failures      []string      `json:"failures,omitempty"`
	Pass          bool          `json:"pass"`
}

// runSoak executes the soak and returns the process exit code.
func runSoak(cfg soakConfig) int {
	o, err := experiment.StartE10Observed(experiment.E10ObservedConfig{
		Buffer:  cfg.buffer,
		Sample:  cfg.sample,
		Archive: true,
		Listen:  cfg.listen,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: start plane: %v\n", err)
		return 2
	}
	defer o.Close()

	endpoint := ""
	if addr := o.Addr(); addr != "" {
		endpoint = "http://" + addr
		// The driver script greps for this exact line to attach a tail.
		fmt.Printf("SOAK_ENDPOINT=%s\n", endpoint)
	}
	if cfg.waitTail > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.waitTail)
		err := o.Plane.WaitSubscriber(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: no tail subscriber within %v: %v\n", cfg.waitTail, err)
			return 2
		}
		fmt.Println("soak: tail subscriber attached")
	}

	sum := soakSummary{Sessions: cfg.sessions, Iterations: cfg.iters, Sample: cfg.sample, Endpoint: endpoint}
	fail := func(format string, args ...any) {
		sum.Failures = append(sum.Failures, fmt.Sprintf(format, args...))
	}

	// Bytes one archived record costs (header amortizes to nothing).
	recBytes := float64(trace.FrameSize(1) - trace.FrameSize(0))

	var fp0 string
	var lastMetrics []byte
	baselineRSS, baselineArch := 0.0, uint64(0)
	for i := 1; i <= cfg.iters; i++ {
		start := time.Now()
		res := o.RunIteration(cfg.sessions)
		wall := time.Since(start)

		fp := res.Fingerprint()
		if i == 1 {
			fp0 = fp
		} else if fp != fp0 {
			fail("iteration %d drifted: %s != %s", i, fp, fp0)
		}

		scrapeBytes := 0
		if endpoint != "" {
			body, err := scrape(endpoint + "/metrics")
			if err != nil {
				fail("iteration %d: scrape /metrics: %v", i, err)
			}
			scrapeBytes = len(body)
			if lastMetrics, err = scrape(endpoint + "/metrics.json"); err != nil {
				fail("iteration %d: scrape /metrics.json: %v", i, err)
			}
		} else {
			if lastMetrics, err = json.MarshalIndent(o.Plane.MetricsSnapshot(), "", "  "); err != nil {
				fail("iteration %d: snapshot: %v", i, err)
			}
		}

		runtime.GC()
		rssMB, heapMB := memMB()
		archRecs := archiveRecords(lastMetrics)
		row := soakIterRow{
			Iter: i, Delivered: res.Delivered, Events: res.Events,
			WallMS:     float64(wall.Microseconds()) / 1e3,
			PktsPerSec: float64(res.Delivered) / wall.Seconds(),
			RSSMB:      rssMB, HeapMB: heapMB, ArchiveRecs: archRecs,
			ScrapeBytes: scrapeBytes, Fingerprint: fp,
		}
		sum.Iters = append(sum.Iters, row)
		fmt.Printf("soak: iter %d/%d  %d pkts  %.0f pkts/s  rss %.1f MB  heap %.1f MB  archive %d recs\n",
			i, cfg.iters, res.Delivered, row.PktsPerSec, rssMB, heapMB, archRecs)

		// Baseline after iteration 2: the first pass pays one-time pool and
		// allocator warmup that is not a leak.
		if i == 2 || (cfg.iters == 1 && i == 1) {
			baselineRSS, baselineArch = rssMB, archRecs
		}
	}

	// Leak gate. The archive retains every streamed record for the post-run
	// diff, so its linear growth is accounted and doubled (slack for heap
	// fragmentation around it); everything else gets a flat allowance.
	last := sum.Iters[len(sum.Iters)-1]
	archGrowthMB := float64(last.ArchiveRecs-baselineArch) * recBytes / (1 << 20)
	sum.BaselineRSSMB = baselineRSS
	sum.FinalRSSMB = last.RSSMB
	sum.AllowedMB = cfg.allowMB + 2*archGrowthMB
	sum.GrowthMB = last.RSSMB - baselineRSS
	if len(sum.Iters) > 2 && sum.GrowthMB > sum.AllowedMB {
		fail("rss grew %.1f MB over the soak (allowed %.1f MB = %.0f flat + 2x %.1f archive)",
			sum.GrowthMB, sum.AllowedMB, cfg.allowMB, archGrowthMB)
	}

	// End the stream so attached tails see EOF, then check for losses and
	// persist the archive for the tail-vs-archive diff.
	o.Finish()
	if sum.TraceDropped = o.Plane.TraceDropped(); sum.TraceDropped != 0 {
		fail("trace stream dropped %d chunks", sum.TraceDropped)
	}
	if cfg.traceOut != "" {
		set, err := o.Plane.Archive()
		if err != nil {
			fail("archive: %v", err)
		} else if err := set.WriteFile(cfg.traceOut); err != nil {
			fail("write %s: %v", cfg.traceOut, err)
		} else {
			fmt.Printf("soak: wrote archive %s (%d records)\n", cfg.traceOut, set.Len())
		}
	}

	sum.Pass = len(sum.Failures) == 0
	if err := writeSoakFile(cfg.prefix+"metrics.json", lastMetrics); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		return 2
	}
	js, _ := json.MarshalIndent(sum, "", "  ")
	if err := writeSoakFile(cfg.prefix+"summary.json", append(js, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		return 2
	}

	if !sum.Pass {
		for _, f := range sum.Failures {
			fmt.Fprintf(os.Stderr, "soak: FAIL: %s\n", f)
		}
		return 1
	}
	fmt.Printf("soak: PASS  %d iterations, rss growth %.1f MB (allowed %.1f), fingerprint stable\n",
		cfg.iters, sum.GrowthMB, sum.AllowedMB)
	return 0
}

func scrape(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	return body, nil
}

// memMB reports resident set size (VmRSS from /proc/self/status) and heap in
// use, in MiB. On platforms without procfs, RSS falls back to heap-in-use —
// weaker, but the gate still catches heap leaks.
func memMB() (rss, heap float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap = float64(ms.HeapInuse) / (1 << 20)
	rss = heap
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if after, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(after), " kB"), 64); err == nil {
					rss = kb / 1024
				}
				break
			}
		}
	}
	return rss, heap
}

// archiveRecords pulls the plane's records-seen counter out of the scraped
// /metrics.json (or a direct snapshot, where it is absent and reads 0) —
// deliberately via the public surface, like any external monitor would.
func archiveRecords(metricsJSON []byte) uint64 {
	var doc struct {
		Plane map[string]uint64 `json:"plane"`
	}
	if err := json.Unmarshal(metricsJSON, &doc); err != nil {
		return 0
	}
	return doc.Plane["obsv.trace.records"]
}

func writeSoakFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("soak: wrote %s\n", path)
	return nil
}
