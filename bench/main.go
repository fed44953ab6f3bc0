// Command bench is the repository benchmark: two live loopback
// workloads and one emulated-WAN workload, each reporting the end-to-end
// metrics of BENCHMARK.json (untraced) or a per-layer breakdown (traced).
// See README.md for the catalogue and the reasoning.
//
//	go run . -workload steady4 -seed 1 -seconds 20 -trace 0
//	go run . -workload all -seed 1 -out A.jsonl     # every workload, one record each
//	go run . -compare A.jsonl B.jsonl               # regression table
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when the correctness gate fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// runEnv is what every workload of one invocation shares.
type runEnv struct {
	seed        int64
	seconds     int
	traced      bool
	connections int
	dataRoot    string
	pad         []byte // seeded transaction padding
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. The driver reads Correct,
// Attempted, Failed and Metrics; the rest goes to -out records.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    int                    `json:"seconds"`
	Traced     bool                   `json:"traced"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	DatadirFS  string                 `json:"datadir_fs"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	Notes      map[string]string      `json:"notes,omitempty"`
	Violations []string               `json:"violations,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "steady4, bulk16, wan16, or all")
		seed     = flag.Int64("seed", 1, "drives transaction padding and arrival times")
		seconds  = flag.Int("seconds", runSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run: telemetry on, CPU profile folded by package, layer replays; prints the per-layer metrics")
		out      = flag.String("out", "", "append one JSON record per run to this file (input of -compare)")
		dataRoot = flag.String("datadir", "", "parent of the nodes' data directories (default /dev/shm, else the temp dir)")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare A B")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue in this package defines it")
	)
	flag.Parse()
	if *manifest {
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.jsonl B.jsonl"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	env, err := newEnv(*seed, *seconds, *trace == 1, *dataRoot)
	if err != nil {
		fatal(err)
	}

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	ok := true
	for _, name := range names {
		res, err := runWorkload(name, env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		res.GOMAXPROCS = procs
		res.DatadirFS = fsName(env.dataRoot)
		printResult(res)
		if *out != "" {
			if err := appendRecord(*out, res); err != nil {
				fatal(err)
			}
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// newEnv prepares what the workloads of one invocation share. An empty
// dataRoot picks /dev/shm, else the temp dir.
func newEnv(seed int64, seconds int, traced bool, dataRoot string) (*runEnv, error) {
	env := &runEnv{
		seed: seed, seconds: seconds, traced: traced,
		connections: min(runtime.NumCPU(), 2),
		dataRoot:    dataRoot,
		pad:         make([]byte, 1<<20),
	}
	if env.dataRoot == "" {
		env.dataRoot = os.TempDir()
		if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
			env.dataRoot = "/dev/shm"
		}
	}
	if err := os.MkdirAll(env.dataRoot, 0o755); err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Read(env.pad)
	return env, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func runWorkload(name string, env *runEnv) (*result, error) {
	res := &result{
		Workload: name, Seed: env.seed, Seconds: env.seconds, Traced: env.traced,
		Metrics: map[string]metricValue{}, Notes: map[string]string{},
	}
	var values map[string]float64
	var err error
	if spec, live := liveSpecs[name]; live {
		values, err = liveMetrics(spec, env, res)
	} else if name == "wan16" {
		values, err = wanMetrics(env, res)
	} else {
		err = fmt.Errorf("unknown workload (have steady4, bulk16, wan16)")
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if env.traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// liveMetrics runs a live workload and names what it measured.
func liveMetrics(spec liveSpec, env *runEnv, res *result) (map[string]float64, error) {
	var reference *liveTotals
	if env.traced {
		// A short untraced incarnation first: trace.overhead_share is the
		// traced headline number against this one.
		ref := *env
		ref.traced = false
		short := spec
		short.incarnations = 1
		var err error
		reference, err = runLive(short, &ref, seconds(env, refShare))
		if err != nil {
			return nil, err
		}
		res.Violations = append(res.Violations, reference.violations...)
	}
	measure := seconds(env, 1)
	if env.traced {
		measure = seconds(env, tracedShare)
		spec.incarnations = 1
	}
	tot, err := runLive(spec, env, measure)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = tot.attempted, tot.failed
	res.Violations = append(res.Violations, tot.violations...)
	if tot.failed > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d of %d transactions never got a verified commit (%d rejected, %d submit errors)", tot.failed, tot.attempted, tot.rejected, tot.errored))
	}
	txMB := float64(spec.txSize) / 1e6
	v := map[string]float64{
		"setup_s":        median(tot.setups),
		"committed_mb_s": median(tot.txPerS) * txMB,
		"commit_p50_ms":  median(tot.p50),
	}
	res.Notes["samples"] = fmt.Sprintf("%d latencies over %.1f s in %d incarnations of %d run", len(tot.latencies), tot.window, len(tot.p50), len(tot.stolenShare))
	res.Notes["stolen_share"] = fmt.Sprintf("%.3f per incarnation run; above %g its timings are set aside", tot.stolenShare, stealLimit)
	res.Notes["per_incarnation"] = fmt.Sprintf("setup_s %.3f  tx/s %.0f  p50_ms %.1f  cpu_s/tx %.3g", tot.setups, tot.txPerS, tot.p50, tot.cpuPerTx)
	lateP50, err := percentile(tot.late, 50)
	if err != nil {
		return nil, err
	}
	lateP99 := percentileOrZero(tot.late, 99) // 0: too few arrivals for a p99
	// A generator as late as the latency it measures is measuring itself.
	// The headline is a median, so the median arrival must be handed over
	// within 5 ms of its due time; the tail that the layer metrics report
	// must stay ahead of the commit p50. See README for what lateness is
	// normal in-process.
	if lateP50 > lateLimitMs || lateP99 > v["commit_p50_ms"] {
		res.Violations = append(res.Violations, fmt.Sprintf("open-loop generator ran late: p50 %.2f ms (limit %d), p99 %.2f ms (limit: commit p50, %.2f ms)", lateP50, lateLimitMs, lateP99, v["commit_p50_ms"]))
	}
	res.Notes["late_ms"] = fmt.Sprintf("p50 %.3f  p90 %.3f  p99 %.3f", lateP50, percentileOrZero(tot.late, 90), lateP99)
	if !env.traced {
		return v, nil
	}

	v["process.cpu_s_per_mb"] = median(tot.cpuPerTx) / txMB
	v["loadgen.late_p99_ms"] = lateP99
	v["loadgen.commit_p95_ms"] = percentileOrZero(tot.latencies, 95)
	v["loadgen.commit_p99_ms"] = percentileOrZero(tot.latencies, 99)
	v["loadgen.failed_share"] = ratio(float64(tot.failed), float64(tot.attempted))
	v["replica.block_bytes_p50"] = median(tot.blockBytes)
	v["replica.txs_per_block_p50"] = median(tot.blockTxs)
	v["replica.p50_drift_ms"] = tot.driftMs
	v["core.catchup_s"] = tot.catchupS
	v["gateway.receipt_p50_us"] = percentileOrZero(tot.receiptUs, 50)
	v["trace.overhead_share"] = ratio(v["commit_p50_ms"], median(reference.p50)) - 1
	layerCounts(v, tot, spec)
	if err := foldInto(v, tot.profile, res); err != nil {
		return nil, err
	}
	shape := layerShape{
		n: spec.n, f: spec.f, txSize: spec.txSize,
		blockBytes:  max(int(v["replica.block_bytes_p50"]), spec.txSize),
		txsPerBlock: max(int(v["replica.txs_per_block_p50"]), 1),
	}
	res.Notes["replay_shape"] = fmt.Sprintf("n=%d f=%d block=%dB txs/block=%d", shape.n, shape.f, shape.blockBytes, shape.txsPerBlock)
	units, err := unitCosts(shape, seconds(env, replayShare), env.dataRoot, env.seed)
	if err != nil {
		return nil, err
	}
	for k, x := range units {
		v[k] = x
	}
	return v, nil
}

// lateLimitMs is how far behind schedule the open loop's median arrival
// may be handed to the client.
const lateLimitMs = 5

// A traced run splits --seconds between the untraced reference
// incarnation, the traced incarnation and the layer replays.
const (
	refShare    = 0.2
	tracedShare = 0.4
	replayShare = 0.25
)

// seconds is a share of the run's --seconds.
func seconds(env *runEnv, share float64) time.Duration {
	return time.Duration(float64(env.seconds) * share * float64(time.Second))
}

// ratio is x/y, or 0 where a layer metric has no base in this run.
func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// layerCounts turns the snapshots around the traced window into the
// count, wait and ratio metrics.
func layerCounts(v map[string]float64, tot *liveTotals, spec liveSpec) {
	a, b, s := tot.before, tot.after, tot.sampled
	payload := float64(b.payload - a.payload)
	epochs := float64(b.epochs - a.epochs)
	txs := float64(b.txs - a.txs)
	cpu := b.cpu - a.cpu
	v["replica.epochs_s"] = ratio(epochs, b.at.Sub(a.at).Seconds())
	v["transport.sent_bytes_per_payload_byte"] = ratio(float64(b.sentBytes-a.sentBytes), payload)
	v["transport.frames_per_epoch"] = ratio(float64(b.sentFrames-a.sentFrames), epochs)
	v["transport.write_queue_max"] = float64(s.writeQueue)
	v["transport.replayed_frames"] = float64(b.replayed - a.replayed)
	v["store.fsyncs_per_epoch"] = ratio(float64(b.fsyncs-a.fsyncs), epochs*float64(spec.n))
	v["store.fsync_p50_us"] = b.fsyncP50us
	v["store.disk_bytes_per_payload_byte"] = ratio(float64(s.diskWritten), payload)
	sum := 0.0
	for _, p := range txPhases {
		v["phase."+p+"_p50_ms"] = b.phaseP50ms[p]
		sum += b.phaseP50ms[p]
	}
	v["phase.sum_over_client_p50"] = ratio(sum, v["commit_p50_ms"])
	v["gateway.rejected_share"] = ratio(float64(b.rejected-a.rejected), float64(b.rejected-a.rejected+b.accepted-a.accepted))
	v["runtime.alloc_mb_per_mb"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), payload)
	v["runtime.allocs_per_tx"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), txs)
	v["runtime.gc_cpu_share"] = ratio(b.gcCPU-a.gcCPU, cpu)
	v["runtime.heap_peak_mb"] = float64(s.heapBytes) / 1e6
	v["runtime.goroutines_max"] = float64(s.goroutines)
}

// foldInto decodes a CPU profile and adds the cpu.* shares.
func foldInto(v map[string]float64, profile []byte, res *result) error {
	samples, err := decodeProfile(profile)
	if err != nil {
		return err
	}
	shares := foldStacks(samples)
	for _, l := range cpuLayers {
		v["cpu."+l] = shares[l]
	}
	v["cpu.runtime"] = shares["runtime"]
	v["cpu.accounted"] = 1 - shares["runtime"]
	var ns int64
	for _, s := range samples {
		ns += s.value
	}
	res.Notes["cpu_top_layer"] = fmt.Sprintf("%s (%.1f%% of %.2f profiled CPU-s)", topLayer(shares), 100*shares[topLayer(shares)], float64(ns)/1e9)
	return nil
}

// wanMetrics runs wan16 and names what it measured.
func wanMetrics(env *runEnv, res *result) (map[string]float64, error) {
	var profile bytes.Buffer
	if env.traced {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, err
		}
	}
	w, err := runWan(env)
	if env.traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	var wall, virtual float64
	for _, s := range w.subs() {
		wall += s.wallS
		virtual += w.virtual.Seconds()
		res.Attempted += int64(s.positions)
		res.Failed += int64(len(s.violations))
		res.Violations = append(res.Violations, s.violations...)
	}
	v := map[string]float64{
		"setup_s":        median(w.setups),
		"committed_mb_s": w.dl.meanMBps,
		"commit_p50_ms":  median(w.mid.p50),
	}
	res.Notes["samples"] = fmt.Sprintf("%d sub-runs of %.0f virtual s, %d boots, %d log positions checked", len(w.subs()), w.virtual.Seconds(), len(w.setups), res.Attempted)
	if !env.traced {
		return v, nil
	}
	// The emulator's own cost, from the DL sub-run only: the sub-runs
	// emulate at different scales.
	v["process.cpu_s_per_mb"] = w.dl.cpuS / w.dl.deliveredMB
	v["simnet.virtual_s_per_wall_s"] = ratio(virtual, wall)
	v["harness.dl_over_hb"] = ratio(w.dl.meanMBps, w.hb.meanMBps)
	v["harness.hb_mb_s_per_node"] = w.hb.meanMBps
	v["loadgen.commit_p95_ms"] = median(w.mid.p95)
	v["harness.commit_p50_ms_light"] = median(w.light.p50)
	v["harness.retrieve_backlog_slope"] = w.mid.backlog
	v["harness.dispersal_fraction"] = w.dl.dispersal
	v["trace.overhead_share"] = w.overhead
	v["replica.block_bytes_p50"] = w.dl.blockBytes
	v["replica.txs_per_block_p50"] = w.dl.blockTxs
	if err := foldInto(v, profile.Bytes(), res); err != nil {
		return nil, err
	}
	shape := layerShape{n: 16, f: 5, txSize: wanTxSize, blockBytes: max(int(w.dl.blockBytes), wanTxSize), txsPerBlock: max(int(w.dl.blockTxs), 1)}
	res.Notes["replay_shape"] = fmt.Sprintf("n=%d f=%d block=%dB txs/block=%d", shape.n, shape.f, shape.blockBytes, shape.txsPerBlock)
	units, err := unitCosts(shape, seconds(env, replayShare), env.dataRoot, env.seed)
	if err != nil {
		return nil, err
	}
	for k, x := range units {
		v[k] = x
	}
	return v, nil
}

// runSeconds is the measured length of one driver run. With three
// workloads the driver's 70 runs, each with its boots, warm-ups, drains
// and build check, and two cold builds take two thirds of its 3420 s;
// the rest is for the incarnations a stolen hour makes the runs repeat.
const runSeconds = 20

// writeManifest renders BENCHMARK.json from the catalogue.
func writeManifest(w io.Writer) error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, x := range workloads {
		m.Workloads = append(m.Workloads, workload{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// printResult writes the human-readable table and, last, the JSON line
// the driver parses.
func printResult(res *result) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer"
	}
	fmt.Printf("# %s  seed=%d seconds=%d  %s  GOMAXPROCS=%d datadir_fs=%s\n", res.Workload, res.Seed, res.Seconds, mode, res.GOMAXPROCS, res.DatadirFS)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Printf("# %s: %s\n", k, res.Notes[k])
	}
	fmt.Printf("# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, violation := range res.Violations {
		fmt.Fprintln(os.Stderr, "bench: VIOLATION:", violation)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func appendRecord(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsName names the filesystem under dir, because fsync cost depends on
// it: tmpfs syncs are free, a disk's are not.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
