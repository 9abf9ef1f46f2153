package main

// metricDef declares one metric. BENCHMARK.json carries the same names
// and units (a test holds the two together) plus, for end-to-end
// metrics, the regression bound. count marks a per-layer metric that
// is an exact count: -compare wants it identical, not close.
type metricDef struct {
	name, unit, better string
	count              bool
}

// endToEnd is what a user of the system sees, defined for every
// workload (README.md says what "op" is on each):
//
//	op_p50_ms    median time of one operation; from its due time where
//	             the workload is paced
//	peak_rss_mb  peak resident memory of the program under test
//	setup_s      time before the first operation can be served
//
// Two that a user also sees are not among them, because on this shared
// host no bound of at most 25 % could hold them. CPU per operation read
// 1400-1700 us on most gridd-park runs and 2300-2660 us on about one
// run in four (a neighbour's load, for ten or twenty seconds at a
// time). The 90th percentile's spread over ten seeds reached 27 % on
// sim-scale and 21 % on sim-figures in the calmest full set. The traced
// run prints both, ungated.
var endToEnd = []metricDef{
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer is every single-layer metric, "layer.metric". Layers are
// this repository's packages plus wire (net/http and loopback), daemon
// (the cmd/gridd process) and loadgen (this program).
var perLayer = []metricDef{
	// loadgen: ungated diagnostics of the generator and the tails.
	{name: "loadgen.late_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.backlog_max", unit: "count", better: "lower"},
	{name: "loadgen.op_p90_ms", unit: "ms", better: "lower"},
	{name: "loadgen.op_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.op_p999_ms", unit: "ms", better: "lower"},
	{name: "loadgen.op_tail_ms", unit: "ms", better: "lower"},
	{name: "loadgen.op_tail_pct", unit: "%", better: "higher"},
	{name: "loadgen.within_limit_frac", unit: "ratio", better: "higher"},
	{name: "loadgen.sat_ops_per_s", unit: "1/s", better: "higher"},
	{name: "loadgen.park_missed", unit: "count", better: "lower"},
	{name: "loadgen.samples", unit: "count", better: "higher"},
	{name: "loadgen.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "loadgen.budget_sum_ms", unit: "ms", better: "lower"},
	{name: "loadgen.build_s", unit: "s", better: "lower"},

	// core: the discipline loop around the wire calls.
	{name: "core.do_self_us", unit: "us", better: "lower"},
	{name: "core.attempts_per_job", unit: "ratio", better: "lower"},
	{name: "core.defers_per_job", unit: "ratio", better: "lower"},
	{name: "core.collisions_per_job", unit: "ratio", better: "lower"},
	{name: "core.backoff_ms_per_job", unit: "ms", better: "lower"},
	{name: "core.success_per_attempt", unit: "ratio", better: "higher"},

	// griddclient: call spans, their codec share, and what a job costs
	// the client process.
	{name: "griddclient.probe_us", unit: "us", better: "lower"},
	{name: "griddclient.acquire_us", unit: "us", better: "lower"},
	{name: "griddclient.release_us", unit: "us", better: "lower"},
	{name: "griddclient.reserve_us", unit: "us", better: "lower"},
	{name: "griddclient.claim_us", unit: "us", better: "lower"},
	{name: "griddclient.codec_self_us", unit: "us", better: "lower"},
	{name: "griddclient.error_self_us", unit: "us", better: "lower"},
	{name: "griddclient.allocs_per_job", unit: "count", better: "lower"},
	{name: "griddclient.alloc_bytes_per_job", unit: "B", better: "lower"},
	{name: "griddclient.roundtrips_per_job", unit: "count", better: "lower", count: true},
	{name: "griddclient.req_bytes_per_job", unit: "B", better: "lower"},
	{name: "griddclient.resp_bytes_per_job", unit: "B", better: "lower"},
	{name: "griddclient.proc_cpu_us_per_job", unit: "us", better: "lower"},

	// wire: net/http client transport, loopback, kernel, net/http server.
	{name: "wire.roundtrip_us", unit: "us", better: "lower"},
	{name: "wire.conn_wait_us", unit: "us", better: "lower"},
	{name: "wire.write_us", unit: "us", better: "lower"},
	{name: "wire.first_byte_us", unit: "us", better: "lower"},
	{name: "wire.server_other_us", unit: "us", better: "lower"},
	{name: "wire.new_conns", unit: "count", better: "lower"},

	// gridd, in-process stage: Handler().ServeHTTP with no socket.
	{name: "gridd.handler_probe_us", unit: "us", better: "lower"},
	{name: "gridd.handler_acquire_us", unit: "us", better: "lower"},
	{name: "gridd.handler_release_us", unit: "us", better: "lower"},
	{name: "gridd.handler_renew_us", unit: "us", better: "lower"},
	{name: "gridd.handler_busy_us", unit: "us", better: "lower"},
	{name: "gridd.handler_stale_us", unit: "us", better: "lower"},
	{name: "gridd.handler_claim_us", unit: "us", better: "lower"},
	{name: "gridd.handler_reserve_us.d0", unit: "us", better: "lower"},
	{name: "gridd.handler_reserve_us.d4096", unit: "us", better: "lower"},
	{name: "gridd.handler_park_handoff_us", unit: "us", better: "lower"},
	{name: "gridd.handler_allocs_per_job", unit: "count", better: "lower"},
	{name: "gridd.handler_alloc_bytes_per_job", unit: "B", better: "lower"},
	{name: "gridd.watchdog_arm_stop_us", unit: "us", better: "lower"},

	// gridd, from /stats at the end of the traced repetition.
	{name: "gridd.grants", unit: "count", better: "higher", count: true},
	{name: "gridd.rejects", unit: "count", better: "lower", count: true},
	{name: "gridd.revokes", unit: "count", better: "lower", count: true},
	{name: "gridd.stales", unit: "count", better: "lower", count: true},
	{name: "gridd.timeouts", unit: "count", better: "lower", count: true},
	{name: "gridd.admits", unit: "count", better: "higher", count: true},
	{name: "gridd.book_rejects", unit: "count", better: "lower", count: true},
	{name: "gridd.busy_per_grant", unit: "ratio", better: "lower"},
	{name: "gridd.max_wait_ms", unit: "ms", better: "lower"},
	{name: "gridd.revoke_lag_us", unit: "us", better: "lower"},

	// daemon: the cmd/gridd process.
	{name: "daemon.cpu_us_per_job", unit: "us", better: "lower"},
	{name: "daemon.spawn_ms", unit: "ms", better: "lower"},
	{name: "daemon.drain_ms", unit: "ms", better: "lower"},
	{name: "daemon.threads", unit: "count", better: "lower"},

	// sim: the engine, through the CLI and through its public API.
	{name: "sim.events_per_s", unit: "1/s", better: "higher"},
	{name: "sim.events_per_s.small", unit: "1/s", better: "higher"},
	{name: "sim.events_per_s.mid", unit: "1/s", better: "higher"},
	{name: "sim.events_per_s.large", unit: "1/s", better: "higher"},
	{name: "sim.wheel_cascades", unit: "count", better: "lower", count: true},
	{name: "sim.max_slot_occupancy", unit: "count", better: "lower", count: true},
	{name: "sim.timer_overflow_len", unit: "count", better: "lower", count: true},
	{name: "sim.schedule_ns", unit: "ns", better: "lower"},
	{name: "sim.schedule_cancel_ns", unit: "ns", better: "lower"},
	{name: "sim.step_ns", unit: "ns", better: "lower"},
	{name: "sim.sleep_cancel_ns", unit: "ns", better: "lower"},
	{name: "sim.switch_ns", unit: "ns", better: "lower"},
	{name: "sim.spawn_ns", unit: "ns", better: "lower"},
	{name: "sim.allocs_per_step", unit: "count", better: "lower"},

	// lease: bundle members that lean on it, and stages on the sim clock.
	{name: "lease.figla_s", unit: "s", better: "lower"},
	{name: "lease.figres_s", unit: "s", better: "lower"},
	{name: "lease.fignet_s", unit: "s", better: "lower"},
	{name: "lease.acquire_release_ns", unit: "ns", better: "lower"},
	{name: "lease.fifo_handoff_ns", unit: "ns", better: "lower"},
	{name: "lease.book_reserve_ns.d0", unit: "ns", better: "lower"},
	{name: "lease.book_reserve_ns.d4096", unit: "ns", better: "lower"},
	{name: "lease.allocs_per_acquire", unit: "count", better: "lower"},

	// The scenario packages, as the bundle members that drive them.
	{name: "condor.fig1_s", unit: "s", better: "lower"},
	{name: "condor.fig23_s", unit: "s", better: "lower"},
	{name: "fsbuffer.fig4_s", unit: "s", better: "lower"},
	{name: "replica.fig67_s", unit: "s", better: "lower"},

	// trace, obs: what turning them on costs.
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.events_per_s", unit: "1/s", better: "higher"},
	{name: "obs.overhead_frac", unit: "ratio", better: "lower"},

	// ftsh: lexer, parser, interpreter.
	{name: "ftsh.scripts_per_s", unit: "1/s", better: "higher"},
	{name: "ftsh.lex_us_per_script", unit: "us", better: "lower"},
	{name: "ftsh.parse_us_per_script", unit: "us", better: "lower"},
	{name: "ftsh.interp_us_per_script", unit: "us", better: "lower"},
	{name: "ftsh.loop_stmts_per_s", unit: "1/s", better: "higher"},
	{name: "ftsh.allocs_per_stmt", unit: "count", better: "lower"},
	{name: "ftsh.alloc_kb_per_pass", unit: "KB", better: "lower"},
	{name: "ftsh.sim_events_per_pass", unit: "count", better: "lower", count: true},
}
