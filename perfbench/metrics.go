package main

// metricDef is one reported metric: its unit, which direction is better
// and, for end-to-end metrics, the share of the parent's median it may
// worsen by. A per-layer metric's name starts with its layer.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system sees; every run without
// tracing reports all of them, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_pps", "frames/CPU-s", "higher", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"sim_goodput_mbps", "Mb/s", "higher", 0.05},
	{"sim_lat_p50_kcyc", "kcyc", "lower", 0.05},
	{"sim_lat_p99_kcyc", "kcyc", "lower", 0.05},
	{"delivered_frac", "ratio", "higher", 0.01},
	{"call_ok_frac", "ratio", "higher", 0.01},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"asm.assemble_ms", "ms", "lower", 0},
		{"rewrite.derive_ms", "ms", "lower", 0},
		{"core.boot_ms", "ms", "lower", 0},

		{"core.guest_transmit.ns_per_frame", "ns/frame", "lower", 0},
		{"core.stage.ns_per_frame", "ns/frame", "lower", 0},
		{"core.post_tx.ns_per_frame", "ns/frame", "lower", 0},
		{"core.service.ns_per_frame", "ns/frame", "lower", 0},
		{"core.service.calls", "count", "lower", 0},
		{"core.tx_ring_depth_mean", "descs", "lower", 0},
		{"core.tx_wait_kcyc_p99", "kcyc", "lower", 0},

		{"nic.inject.ns_per_frame", "ns/frame", "lower", 0},
		{"nic.wire.ns_per_frame", "ns/frame", "lower", 0},
		{"core.irq.ns_per_frame", "ns/frame", "lower", 0},
		{"core.post_rx.ns_per_frame", "ns/frame", "lower", 0},
		{"core.deliver.ns_per_frame", "ns/frame", "lower", 0},
		{"core.rx_pending_max", "frames", "lower", 0},
		{"core.pool_free_min", "skbs", "higher", 0},
		{"core.pinned_pages_max", "pages", "lower", 0},

		{"sim.domU_cyc_per_pkt", "cyc/pkt", "lower", 0},
		{"sim.xen_cyc_per_pkt", "cyc/pkt", "lower", 0},
		{"sim.dom0_cyc_per_pkt", "cyc/pkt", "lower", 0},
		{"sim.driver_cyc_per_pkt", "cyc/pkt", "lower", 0},
		{"sim.critical_cyc_per_pkt", "cyc/pkt", "lower", 0},

		{"xen.hypercalls_per_pkt", "1/pkt", "lower", 0},
		{"xen.switches_per_pkt", "1/pkt", "lower", 0},
		{"upcall.upcalls_per_pkt", "1/pkt", "lower", 0},

		{"svm.gtlb_hit_rate", "ratio", "higher", 0},
		{"svm.gtlb_misses_per_pkt", "1/pkt", "lower", 0},
		{"svm.violations", "count", "lower", 0},

		{"vswitch.local_frac", "ratio", "higher", 0},
		{"vswitch.spoof_dropped", "frames", "lower", 0},
		{"vswitch.rx_dropped", "frames", "lower", 0},
		{"sched.share_err_pct", "%", "lower", 0},

		{"recovery.recoveries", "count", "lower", 0},
		{"recovery.mttr_kcyc", "kcyc", "lower", 0},
		{"recovery.recover_ms", "ms", "lower", 0},
		{"recovery.lost_rx", "frames", "lower", 0},
		{"recovery.retried_tx", "frames", "lower", 0},

		{"drops.gtlb_violation", "frames", "lower", 0},
		{"drops.oversize", "frames", "lower", 0},
		{"drops.ring_full", "frames", "lower", 0},
		{"drops.abort_discard", "descs", "lower", 0},
		{"drops.spoof", "frames", "lower", 0},

		{"ledger.loss_frac", "ratio", "lower", 0},
		{"ledger.fail_frac", "ratio", "lower", 0},
		{"ledger.lat_samples", "count", "higher", 0},

		{"host.allocs_per_pkt", "1/pkt", "lower", 0},
		{"host.alloc_bytes_per_pkt", "B/pkt", "lower", 0},
		{"host.gc_cpu_frac", "ratio", "lower", 0},
		{"host.cpu_wall_ratio", "ratio", "higher", 0},
	}
	for _, c := range hostCalls {
		d = append(d,
			metricDef{"host." + c.name + ".p50_us", "us", "lower", 0},
			metricDef{"host." + c.name + ".p99_us", "us", "lower", 0})
	}
	d = append(d,
		metricDef{"trace.overhead_frac", "ratio", "lower", 0},
		metricDef{"trace.spans_per_frame", "1/frame", "lower", 0})
	for _, l := range layers {
		d = append(d, metricDef{"trace.self_frac." + l, "ratio", "lower", 0})
	}
	return d
}()
