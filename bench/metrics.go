package main

// metricDef is one entry of the benchmark's catalogue. BENCHMARK.json
// repeats the catalogue for the driver; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Layer metrics have none.
	Bound float64
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them; what each means on wan16 (virtual time) is
// in the README. None of them is bound by the CPU: on the shared host
// the driver measures on, ten runs of the same instructions spread a
// quarter in CPU time, so CPU cost is the layer metric
// process.cpu_s_per_mb and the live workloads leave the cores half idle.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"committed_mb_s", "MB/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer numbers of a traced run, from three
// sources: the CPU profile folded by package (cpu.*), replays of single
// layers at the workload's own shape (unit costs), and counter deltas
// over the measured window. A metric a workload does not exercise reads
// 0 (the phase.* of wan16, the harness.* of the live workloads).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{Name: "cpu." + l, Unit: "share", Better: "lower"})
	}
	out = append(out,
		metricDef{Name: "cpu.runtime", Unit: "share", Better: "lower"},
		metricDef{Name: "cpu.accounted", Unit: "share", Better: "higher"},
	)
	return append(out, []metricDef{
		// Unit costs.
		{Name: "gf256.muladd_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "erasure.encode_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "erasure.decode_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "merkle.build_us", Unit: "us", Better: "lower"},
		{Name: "merkle.verify_us", Unit: "us", Better: "lower"},
		{Name: "avid.disperse_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "avid.retrieve_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "ba.decide_us", Unit: "us", Better: "lower"},
		{Name: "ba.msgs_per_decide", Unit: "count", Better: "lower"},
		{Name: "wire.chunk_codec_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "wire.vote_codec_ns", Unit: "ns", Better: "lower"},
		{Name: "wire.block_codec_us_per_ktx", Unit: "us", Better: "lower"},
		{Name: "bufpool.get_release_ns", Unit: "ns", Better: "lower"},
		{Name: "mempool.push_ns", Unit: "ns", Better: "lower"},
		{Name: "mempool.pop_us_per_ktx", Unit: "us", Better: "lower"},
		{Name: "mempool.commit_ns", Unit: "ns", Better: "lower"},
		{Name: "store.append_sync_us", Unit: "us", Better: "lower"},
		{Name: "store.putchunk_mb_s", Unit: "MB/s", Better: "higher"},
		{Name: "store.recover_ms", Unit: "ms", Better: "lower"},
		{Name: "gateway.ondeliver_us_per_ktx", Unit: "us", Better: "lower"},
		{Name: "dlclient.verify_ns", Unit: "ns", Better: "lower"},
		// Counts, waits and ratios over the measured window.
		{Name: "process.cpu_s_per_mb", Unit: "s/MB", Better: "lower"},
		{Name: "replica.epochs_s", Unit: "1/s", Better: "higher"},
		{Name: "replica.block_bytes_p50", Unit: "B", Better: "higher"},
		{Name: "replica.txs_per_block_p50", Unit: "count", Better: "higher"},
		{Name: "replica.p50_drift_ms", Unit: "ms", Better: "lower"},
		{Name: "transport.sent_bytes_per_payload_byte", Unit: "B/B", Better: "lower"},
		{Name: "transport.frames_per_epoch", Unit: "count", Better: "lower"},
		{Name: "transport.write_queue_max", Unit: "count", Better: "lower"},
		{Name: "transport.replayed_frames", Unit: "count", Better: "lower"},
		{Name: "store.fsyncs_per_epoch", Unit: "count", Better: "lower"},
		{Name: "store.fsync_p50_us", Unit: "us", Better: "lower"},
		{Name: "store.disk_bytes_per_payload_byte", Unit: "B/B", Better: "lower"},
		{Name: "phase.admit_wait_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "phase.mempool_wait_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "phase.disperse_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "phase.ba_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "phase.retrieve_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "phase.deliver_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "phase.proof_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "phase.sum_over_client_p50", Unit: "ratio", Better: "higher"},
		{Name: "gateway.receipt_p50_us", Unit: "us", Better: "lower"},
		{Name: "gateway.rejected_share", Unit: "share", Better: "lower"},
		{Name: "runtime.alloc_mb_per_mb", Unit: "MB/MB", Better: "lower"},
		{Name: "runtime.allocs_per_tx", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
		{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
		{Name: "runtime.goroutines_max", Unit: "count", Better: "lower"},
		{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "loadgen.commit_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "loadgen.commit_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "loadgen.failed_share", Unit: "share", Better: "lower"},
		{Name: "core.catchup_s", Unit: "s", Better: "lower"},
		{Name: "simnet.virtual_s_per_wall_s", Unit: "ratio", Better: "higher"},
		{Name: "harness.dl_over_hb", Unit: "ratio", Better: "higher"},
		{Name: "harness.hb_mb_s_per_node", Unit: "MB/s", Better: "higher"},
		{Name: "harness.commit_p50_ms_light", Unit: "ms", Better: "lower"},
		{Name: "harness.retrieve_backlog_slope", Unit: "1/s", Better: "lower"},
		{Name: "harness.dispersal_fraction", Unit: "share", Better: "higher"},
		{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	}...)
}()

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"steady4", "n=4 open loop, 4000 tx/s of 256 B, a third of two cores: client latency on a lightly loaded cluster, set by batching wait, BA rounds, fsync grouping, per-epoch overhead and the per-transaction path"},
	{"bulk16", "n=16 open loop, 48 tx/s of 32 KiB, 1 s batch timer: the per-byte and per-message paths (gf256/erasure at K=6 on 0.8 MB blocks, merkle, avid, chunk frames, store, 16 BAs per epoch); per-tx path idle"},
	{"wan16", "emulated 16-city WAN in virtual time, repeatable per seed: DL at infinite backlog and at 6 MB/s (traced: plus HB, 2 MB/s); moved only by protocol policy or bandwidth sharing, never by CPU work"},
}
