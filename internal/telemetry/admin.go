package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// StatusSchemaVersion is the /statusz payload schema version, carried
// as the "schema_version" field. Aggregators (cmd/dlctl) hard-fail on a
// mismatch instead of mis-parsing drifted payloads; bump it whenever an
// existing field changes meaning or shape (adding fields is
// backward-compatible and needs no bump).
//
// Version 2: the transaction-tracing release. dlctl's latency view
// joins the dl_tx_phase_seconds histograms and the queues panel
// across nodes; letting a v1 aggregator silently render a cluster
// without them (or a v2 aggregator trust a v1 node to have them)
// would misattribute latency, so the bump makes the mix fail loudly.
const StatusSchemaVersion = 2

// statusTimelines is the number of recent delivered epoch timelines
// /statusz embeds for cross-node joining.
const statusTimelines = 64

// StatusFunc supplies the node-specific portion of /statusz (position,
// mempool, sync state, ...). It is called per request from an HTTP
// goroutine and must gather its data safely (e.g. via the node's
// Inspect).
type StatusFunc func() map[string]any

// slowestJSON is the /statusz rendering of one slow epoch.
type slowestJSON struct {
	Epoch    uint64             `json:"epoch"`
	E2EMs    float64            `json:"e2e_ms"`
	StagesMs map[string]float64 `json:"stages_ms"`
}

// NewAdminMux builds the operator endpoint mux:
//
//	/metrics              Prometheus text exposition
//	/statusz              JSON node status + stage breakdown + slowest
//	                      epochs + recent timelines (schema_version'd)
//	/healthz              200 "ok"
//	/debug/flightrecorder protocol flight-recorder journal (text; JSON
//	                      with ?format=json)
//	/debug/pprof          the standard runtime profiles
//
// status may be nil; m may be nil (endpoints then serve empty data,
// keeping /healthz and pprof useful).
func NewAdminMux(m *Metrics, status StatusFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]any{"schema_version": StatusSchemaVersion}
		if status != nil {
			for k, v := range status() {
				out[k] = v
			}
		}
		if reg := m.Registry(); reg != nil {
			snap := reg.Snapshot()
			out["metrics"] = snap
			// Dedicated panels for the operator's two "where is my
			// latency" questions: queue/backpressure gauges and the
			// sampled per-transaction phase decomposition.
			queues := map[string]any{}
			phases := map[string]any{}
			for k, v := range snap {
				switch {
				case strings.HasPrefix(k, "dl_queue_"):
					queues[k] = v
				case strings.HasPrefix(k, "dl_tx_phase_seconds"):
					phases[k] = v
				}
			}
			out["queues"] = queues
			out["tx_phases"] = phases
		}
		if tr := m.Trace(); tr != nil {
			slow := tr.SlowestEpochs(10)
			js := make([]slowestJSON, 0, len(slow))
			for i := range slow {
				tl := &slow[i]
				stages := map[string]float64{}
				for k, d := range tl.StageBreakdown() {
					stages[k] = float64(d) / float64(time.Millisecond)
				}
				js = append(js, slowestJSON{
					Epoch:    tl.Epoch,
					E2EMs:    float64(tl.E2E()) / float64(time.Millisecond),
					StagesMs: stages,
				})
			}
			out["slowest_epochs"] = js
			out["inflight_epochs"] = tr.InflightEpochs()
			// Recent delivered timelines, raw (stage stamps + per-peer
			// sub-spans), for cluster-level joining by dlctl. Timestamps
			// are node-local; aggregators must compare durations only.
			all := tr.Delivered()
			if len(all) > statusTimelines {
				all = all[len(all)-statusTimelines:]
			}
			out["timelines"] = all
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		fl := m.Flight()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(map[string]any{
				"schema_version": StatusSchemaVersion,
				"total":          fl.Total(),
				"events":         fl.Events(),
			})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if fl == nil {
			w.Write([]byte("flight recorder disabled\n"))
			return
		}
		fl.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// AdminServer is a running admin HTTP endpoint.
type AdminServer struct {
	srv  *http.Server
	l    net.Listener
	done chan struct{} // closed when the Serve goroutine exits
	once sync.Once
	err  error
}

// adminReadHeaderTimeout bounds how long a client may take to send its
// request line and headers, so a half-sent request cannot hold a
// connection forever. There is deliberately no write timeout:
// /debug/pprof/profile streams for its requested seconds.
const adminReadHeaderTimeout = 5 * time.Second

// ServeAdmin starts the admin endpoint on l (which the server takes
// ownership of) and serves until Close.
func ServeAdmin(l net.Listener, m *Metrics, status StatusFunc) *AdminServer {
	a := &AdminServer{
		srv:  &http.Server{Handler: NewAdminMux(m, status), ReadHeaderTimeout: adminReadHeaderTimeout},
		l:    l,
		done: make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		a.srv.Serve(l)
	}()
	return a
}

// Addr returns the listener address (e.g. to discover a :0 port).
func (a *AdminServer) Addr() net.Addr { return a.l.Addr() }

// Close stops the server, closes its listener and every open
// connection, and waits for the serve goroutine to exit, so a closed
// node leaks neither the admin port nor a goroutine. Idempotent.
func (a *AdminServer) Close() error {
	a.once.Do(func() {
		a.err = a.srv.Close()
		<-a.done
	})
	return a.err
}
