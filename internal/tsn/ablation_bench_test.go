package tsn

// Ablation A4 (DESIGN.md §4): the control-gate window length trades
// worst-case control latency (longer wait for a short window's next
// occurrence) against bulk throughput (time stolen from the open window).
// The reported metrics expose both sides.

import (
	"fmt"
	"testing"

	"dynaplat/internal/network"
	"dynaplat/internal/sim"
)

func BenchmarkA4GateWindow(b *testing.B) {
	cycle := sim.Millisecond
	for _, ctrlWin := range []sim.Duration{
		50 * sim.Microsecond, 100 * sim.Microsecond, 250 * sim.Microsecond,
	} {
		ctrlWin := ctrlWin
		b.Run(fmt.Sprintf("ctrl=%v", ctrlWin), func(b *testing.B) {
			var ctrlP100 sim.Duration
			var bulkDone int64
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(5)
				cfg := DefaultConfig("tt")
				cfg.GCL = ControlGCL(ctrlWin, cycle-ctrlWin)
				n := New(k, cfg)
				n.Attach("da", func(network.Delivery) {})
				n.Attach("nda", func(network.Delivery) {})
				done := int64(0)
				n.Attach("sink", func(d network.Delivery) {
					if d.Msg.Class == network.ClassBulk {
						done++
					}
				})
				k.Every(0, sim.Millisecond, func() {
					for j := 0; j < 8; j++ {
						n.Send(network.Message{Class: network.ClassBulk,
							Src: "nda", Dst: "sink", Bytes: 1500})
					}
				})
				k.Every(sim.Time(333*sim.Microsecond), 10*sim.Millisecond, func() {
					n.Send(network.Message{Class: network.ClassControl,
						Src: "da", Dst: "sink", Bytes: 16})
				})
				k.RunUntil(sim.Time(sim.Second))
				ctrlP100 = n.Latency(network.ClassControl).MaxDuration()
				bulkDone = done
			}
			b.ReportMetric(float64(ctrlP100), "ctrl-p100-ns")
			b.ReportMetric(float64(bulkDone), "bulk-frames")
		})
	}
}
