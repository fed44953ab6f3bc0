package telemetry

import "time"

// Options configures a node's telemetry bundle.
type Options struct {
	// TraceRing is the number of delivered epoch timelines retained
	// for the slowest-epochs query (0 = default 512).
	TraceRing int
	// FlightRing is the number of protocol events the flight recorder
	// retains (0 = default 4096).
	FlightRing int
}

// Metrics is one node's telemetry bundle: the metrics registry and the
// three event folds — epoch tracer, flight recorder and sampled
// transaction journeys. Layers report facts through Emit and read
// results through the accessors; layers that keep their own gauges and
// histograms (replica, transport) register them against Registry at
// construction time. A nil *Metrics disables telemetry: Emit returns
// at once, the accessors return nil, and every handle obtained through
// nil no-ops, so instrumented code needs no enabled/disabled branches.
type Metrics struct {
	registry *Registry
	trace    *Tracer
	flight   *FlightRecorder
	journeys *Journeys
	// folds lists, per kind, the registry series its events feed.
	folds [numKinds][]fold
	// proposals counts TxProposed events by their trigger (Arg).
	proposals [len(triggerNames)]*Counter
}

// New builds an enabled telemetry bundle and wires every consumer of
// the event stream.
func New(opts Options) *Metrics {
	m := &Metrics{
		registry: NewRegistry(),
		flight:   newFlightRecorder(opts.FlightRing),
	}
	m.trace = newTracer(m.registry, opts.TraceRing)
	m.journeys = newJourneys(m.registry, m.trace, m.flight)
	register(m.registry, &m.folds, nodeSeries)
	for t, name := range triggerNames {
		m.proposals[t] = m.registry.Counter("dl_proposals_total", `trigger="`+name+`"`,
			"Transaction-carrying proposals by what released them.")
	}
	return m
}

// EnableGateway registers the client gateway's series, so that only a
// node that runs a gateway exposes them. Call it before the gateway
// reports its first fact.
func (m *Metrics) EnableGateway() {
	if m != nil {
		register(m.registry, &m.folds, gatewaySeries)
	}
}

// Emit reports one protocol fact, with the transactions it concerns
// for the kinds that carry some. It is the only way facts enter the
// bundle; safe from any goroutine.
func (m *Metrics) Emit(ev Event, txs ...[]byte) {
	if m != nil {
		m.emit(ev, txs)
	}
}

// emit runs the folds in an order the outputs depend on: journeys
// before the tracer, because finalizing an epoch's journeys reads the
// inflight timeline that the tracer's own StageDeliver observation
// retires; and the journeys' derived checkpoint entries before the
// fact's own journal line.
func (m *Metrics) emit(ev Event, txs [][]byte) {
	for _, fold := range m.folds[ev.Kind] {
		fold(ev, len(txs))
	}
	switch ev.Kind {
	case TxEnqueued:
		m.journeys.enqueued(txs, ev.At)
	case TxAdmitted:
		m.journeys.admitted(txs, time.Duration(ev.Arg))
	case TxProposed:
		m.proposals[ev.Arg].Inc()
		m.journeys.proposed(txs, ev)
	case BlockDelivered, BlockDeliveredLinked:
		m.journeys.blockDelivered(ev)
	case TxProofIngested:
		m.journeys.proofIngested(ev)
	case StageDeliver:
		m.journeys.epochDelivered(ev.Epoch, ev.At)
	}
	if ev.Kind <= PeerRetrieveResp {
		m.trace.observe(ev)
	}
	if code := kinds[ev.Kind].code; code >= 0 && code != txPhaseCode {
		m.flight.record(ev)
	}
}

// Registry returns the metrics registry (nil when telemetry is
// disabled; a nil *Registry hands out nil no-op handles).
func (m *Metrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.registry
}

// Trace returns the epoch tracer for reading (nil when telemetry is
// disabled; a nil *Tracer reads empty).
func (m *Metrics) Trace() *Tracer {
	if m == nil {
		return nil
	}
	return m.trace
}

// Flight returns the flight recorder for reading (nil when telemetry
// is disabled; a nil *FlightRecorder reads empty).
func (m *Metrics) Flight() *FlightRecorder {
	if m == nil {
		return nil
	}
	return m.flight
}

// Journeys returns the sampled transaction journeys for reading (nil
// when telemetry is disabled; a nil *Journeys reads empty).
func (m *Metrics) Journeys() *Journeys {
	if m == nil {
		return nil
	}
	return m.journeys
}
