package main

import (
	"fmt"
	"time"

	"adaptive/internal/message"
	"adaptive/internal/unites"
	"adaptive/internal/wire"
)

// The layer-alone ledger times single layers in isolation, replaying the
// sample of PDUs the traced pass sent: so each cost is measured at the PDU
// sizes and checksum mix the workload really produced. Printed beside the
// span self-times, it says how much of a span is the layer's own work.

// ledgerOps is how many operations one timing repetition runs.
const ledgerOps = 100_000

// timeOp returns the median ns per call of op over a few repetitions.
func timeOp(op func(i int)) float64 {
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < ledgerOps; i++ {
			op(i)
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/ledgerOps)
	}
	return quantile(reps, 0.5)
}

func measureLedger(pdus [][]byte) metrics {
	m := metrics{
		"wire.encode_ns":           {0, "ns"},
		"wire.decode_ns":           {0, "ns"},
		"message.alloc_release_ns": {0, "ns"},
		"unites.count_ns":          {0, "ns"},
	}
	// Keep only PDUs the codec accepts (every one the stack sent should).
	var sample []*wire.PDU
	var pkts [][]byte
	for _, b := range pdus {
		p := &wire.PDU{}
		if wire.DecodeInto(b, p) != nil {
			continue
		}
		// Send-side payloads carry headroom, as Session.Send allocates them.
		if p.Payload != nil {
			pm := message.AllocPooled(p.Payload.Len(), message.DefaultHeadroom)
			copy(pm.Bytes(), p.Payload.Bytes())
			p.Payload.Release()
			p.Payload = pm
		}
		sample = append(sample, p)
		pkts = append(pkts, b)
	}
	if len(sample) > 0 {
		emit := func([]byte) error { return nil }
		m["wire.encode_ns"] = metric{timeOp(func(i int) {
			p := sample[i%len(sample)]
			_ = wire.EncodeTo(p, p.Checksum(), emit)
		}), "ns"}
		var p wire.PDU
		m["wire.decode_ns"] = metric{timeOp(func(i int) {
			if wire.DecodeInto(pkts[i%len(pkts)], &p) == nil {
				p.ReleasePayload()
			}
		}), "ns"}
		m["message.alloc_release_ns"] = metric{timeOp(func(i int) {
			message.AllocPooled(int(sample[i%len(sample)].PayloadLen), message.DefaultHeadroom).Release()
		}), "ns"}
		for _, p := range sample {
			p.ReleasePayload()
		}
	}
	rec := unites.NewRepository().SinkFor("ledger")(1)
	names := []string{"pdus_sent", "bytes_sent", "pdus_recv", "acks_sent"}
	m["unites.count_ns"] = metric{timeOp(func(i int) { rec.Count(names[i%len(names)], 1) }), "ns"}
	return m
}

// printLedger prints the per-PDU account of the traced pass: the process
// CPU per delivered PDU, the self-time of every span kind, the layer-alone
// costs at the rate the pass used them, and what no span covers.
func printLedger(base, tr *result, m metrics) {
	a := tr.agg
	pkts := float64(tr.win.total().pkts)
	per := func(ns int64) float64 { return ratio(float64(ns), pkts) }
	fmt.Println("# ledger: ns per delivered PDU (traced pass)")
	fmt.Printf("#   %-28s %10.1f\n", "cpu (traced)", cpuPerPkt(tr))
	fmt.Printf("#   %-28s %10.1f\n", "cpu (untraced)", cpuPerPkt(base))
	for k := spanKind(0); k < numSpanKinds; k++ {
		fmt.Printf("#   span %-23s %10.1f  (%d spans, %.1f ns self each)\n",
			spanNames[k], per(a.self[k]), a.count[k], ratio(float64(a.self[k]), float64(a.count[k])))
	}
	var sent uint64
	for _, n := range a.sentByType {
		sent += n
	}
	txPer := ratio(float64(sent), pkts)
	rxPer := ratio(float64(a.rxPkts), pkts)
	fmt.Printf("#   of which wire.encode        %10.1f  (%.3f PDUs sent per PDU delivered)\n", m["wire.encode_ns"].Value*txPer, txPer)
	fmt.Printf("#   of which wire.decode        %10.1f  (%.3f PDUs received per PDU delivered)\n", m["wire.decode_ns"].Value*rxPer, rxPer)
	fmt.Printf("#   of which message alloc+rel  %10.1f  (one per PDU sent and per PDU received)\n", m["message.alloc_release_ns"].Value*(txPer+rxPer))
	fmt.Printf("#   unites.Count per call       %10.1f\n", m["unites.count_ns"].Value)
	fmt.Printf("#   %-28s %10.1f  (ledger.residual_frac %.3f)\n", "outside every span",
		cpuPerPkt(tr)-m["ledger.span_self_ns_per_pkt"].Value, m["ledger.residual_frac"].Value)
}
