// Package spotdc is a Go implementation of SpotDC, the spot power-capacity
// market for multi-tenant data centers from "A Spot Capacity Market to
// Increase Power Infrastructure Utilization in Multi-Tenant Data Centers"
// (HPCA 2018).
//
// A multi-tenant (colocation) data center leases guaranteed power capacity
// to tenants who run their own servers. The aggregate demand fluctuates,
// leaving unused headroom — spot capacity — at the shared PDUs and UPS.
// SpotDC sells that headroom per time slot: tenants submit a four-parameter
// piece-wise linear demand function per rack, and the operator picks the
// uniform price maximizing its revenue subject to rack, PDU and UPS
// capacity constraints.
//
// The package surface mirrors the system's layers:
//
//   - Topology / NewTopology describe the power-delivery tree.
//   - LinearBid, StepBid, FullBid and Market / NewMarket implement demand
//     function bidding and uniform-price clearing (the paper's core).
//   - Operator / NewOperator add spot prediction, billing and profit
//     accounting (Algorithm 1).
//   - Sprint, Opp and BundledSprint are ready-made tenant agents with the
//     paper's workload and cost models.
//   - Testbed, Scaled, Run and Mode* reproduce the paper's evaluation
//     scenarios end to end.
//   - RunExperiment regenerates any of the paper's tables and figures.
//
// Quick start (one market round):
//
//	topo, _ := spotdc.NewTopology(1370,
//		[]spotdc.PDU{{ID: "PDU#1", Capacity: 715}},
//		[]spotdc.Rack{{ID: "S-1", Tenant: "search", PDU: 0, Guaranteed: 145, SpotHeadroom: 60}})
//	op, _ := spotdc.NewOperator(spotdc.OperatorConfig{Topology: topo})
//	out, _ := op.RunSlot([]spotdc.Bid{{
//		Rack: 0, Tenant: "search",
//		Fn:   spotdc.LinearBid{DMax: 40, DMin: 15, QMin: 0.1, QMax: 0.4},
//	}}, reading, 2.0/60)
//	fmt.Println(out.Result.Price, out.Result.TotalWatts)
//
// See examples/ for runnable programs and DESIGN.md / EXPERIMENTS.md for
// the reproduction methodology.
package spotdc

import (
	"io"
	"net/http"

	"spotdc/internal/audit"
	"spotdc/internal/billing"
	"spotdc/internal/capping"
	"spotdc/internal/config"
	"spotdc/internal/core"
	"spotdc/internal/experiments"
	"spotdc/internal/metrics"
	"spotdc/internal/node"
	"spotdc/internal/operator"
	"spotdc/internal/otrace"
	"spotdc/internal/par"
	"spotdc/internal/power"
	"spotdc/internal/proto"
	"spotdc/internal/rackpdu"
	"spotdc/internal/sim"
	"spotdc/internal/tenant"
	"spotdc/internal/trace"
	"spotdc/internal/wal"
	"spotdc/internal/workload"
)

// Power hierarchy (internal/power).
type (
	// Topology is the UPS → PDU → rack power-delivery tree.
	Topology = power.Topology
	// PDU is one cluster-level power distribution unit.
	PDU = power.PDU
	// Rack is one tenant rack with guaranteed capacity and spot headroom.
	Rack = power.Rack
	// Reading is a per-rack power snapshot.
	Reading = power.Reading
	// Spot is the available spot capacity at every level for one slot.
	Spot = power.Spot
	// PredictOptions tunes spot-capacity prediction.
	PredictOptions = power.PredictOptions
	// Emergency is a capacity excursion report.
	Emergency = power.Emergency
)

// NewTopology validates and indexes a power topology.
func NewTopology(upsCapacity float64, pdus []PDU, racks []Rack) (*Topology, error) {
	return power.NewTopology(upsCapacity, pdus, racks)
}

// Market design (internal/core — the paper's contribution).
type (
	// DemandFunc is a rack's spot-capacity demand as a function of price.
	DemandFunc = core.DemandFunc
	// LinearBid is the paper's four-parameter piece-wise linear demand
	// function (Fig. 3(a)).
	LinearBid = core.LinearBid
	// StepBid is the Amazon-style all-or-nothing demand function.
	StepBid = core.StepBid
	// FullBid is a completely sampled demand curve.
	FullBid = core.FullBid
	// PricePoint samples a full demand curve.
	PricePoint = core.PricePoint
	// Bid pairs a rack with its demand function.
	Bid = core.Bid
	// Constraints carries the Eqn. (2)–(4) capacity limits.
	Constraints = core.Constraints
	// Market clears spot capacity at a uniform revenue-maximizing price.
	Market = core.Market
	// MarketOptions tunes the clearing-price search.
	MarketOptions = core.Options
	// Allocation is one rack's granted spot capacity.
	Allocation = core.Allocation
	// ClearingResult is the outcome of one market clearing.
	ClearingResult = core.Result
	// MaxPerfRequest exposes a rack's true gain curve to the MaxPerf
	// baseline.
	MaxPerfRequest = core.MaxPerfRequest
	// GainFunc maps granted watts to performance gain in $/h.
	GainFunc = core.GainFunc
	// ClearingAlgorithm selects the market-clearing engine (see
	// MarketOptions.Algorithm).
	ClearingAlgorithm = core.Algorithm
	// Breakpointer is the structural interface a demand function implements
	// to enable exact breakpoint-driven clearing.
	Breakpointer = core.Breakpointer
)

// Clearing-engine selectors for MarketOptions.Algorithm.
const (
	// AlgorithmAuto picks exact clearing when every bid exposes its
	// piece-wise linear structure, else falls back to the grid scan.
	AlgorithmAuto = core.AlgorithmAuto
	// AlgorithmScan forces the Section III-C grid scan (the reference
	// oracle).
	AlgorithmScan = core.AlgorithmScan
	// AlgorithmExact forces the breakpoint-driven exact engine.
	AlgorithmExact = core.AlgorithmExact
)

// ParseClearingAlgorithm parses "auto", "scan" or "exact" (empty means
// auto), for wiring the Algorithm knob through flags and config files.
func ParseClearingAlgorithm(s string) (ClearingAlgorithm, error) {
	return core.ParseAlgorithm(s)
}

// Optional Section III-A constraints (heat density, phase balance).
type (
	// Extras carries the optional zone and phase constraints.
	Extras = core.Extras
	// Zone is a heat-density (cooling) constraint over a set of racks.
	Zone = core.Zone
	// PhaseOf assigns racks to three-phase feeds.
	PhaseOf = core.PhaseOf
)

// NewMarket builds a clearing engine over the given constraints.
func NewMarket(cons Constraints, opts MarketOptions) (*Market, error) {
	return core.NewMarket(cons, opts)
}

// NewFullBid builds a FullBid from demand-curve samples.
func NewFullBid(points []PricePoint) (*FullBid, error) {
	return core.NewFullBid(points)
}

// BundleBids builds the per-rack linear bids of a multi-rack (bundled)
// demand vector (Section III-B3).
func BundleBids(tenantName string, racks []int, dMax, dMin []float64, qMin, qMax float64) ([]Bid, error) {
	return core.Bundle(tenantName, racks, dMax, dMin, qMin, qMax)
}

// MaxPerf allocates spot capacity to maximize total performance gain — the
// owner-operated baseline of Section V-B.
func MaxPerf(cons Constraints, reqs []MaxPerfRequest, quantumWatts float64) ([]Allocation, error) {
	return core.MaxPerf(cons, reqs, core.MaxPerfOptions{QuantumWatts: quantumWatts})
}

// Operator runtime (internal/operator).
type (
	// Operator runs the per-slot SpotDC control loop with billing.
	Operator = operator.Operator
	// OperatorConfig assembles an Operator.
	OperatorConfig = operator.Config
	// Pricing carries the monetary parameters of the evaluation.
	Pricing = operator.Pricing
	// SlotOutcome reports one slot of market operation.
	SlotOutcome = operator.SlotOutcome
	// ProfitReport summarizes operator profit vs the no-spot baseline.
	ProfitReport = operator.ProfitReport
)

// NewOperator builds the operator for a topology.
func NewOperator(cfg OperatorConfig) (*Operator, error) { return operator.New(cfg) }

// DefaultPricing returns the paper's evaluation parameters.
func DefaultPricing() Pricing { return operator.DefaultPricing() }

// Emergency response (internal/operator + internal/rackpdu): the Section
// III-C detect → reclaim → cap → verify loop.
type (
	// ResponderConfig arms the operator's emergency responder
	// (OperatorConfig.Emergency).
	ResponderConfig = operator.ResponderConfig
	// ReclaimPlan is one emergency's spot-first reclamation plan.
	ReclaimPlan = operator.ReclaimPlan
	// ReclaimTarget is one rack's budget reset within a ReclaimPlan.
	ReclaimTarget = operator.ReclaimTarget
	// RackPDU is a metered rack PDU with a settable power budget — the
	// physical enforcement point for emergency budget resets.
	RackPDU = rackpdu.PDU
)

// PlanReclaim computes the spot-first proportional reclamation plan for one
// capacity emergency. Pure and deterministic: the audit replays it bit-exactly.
func PlanReclaim(topo *Topology, em Emergency, rackWatts, spotGrants []float64, escalationSeverity float64) ReclaimPlan {
	return operator.PlanReclaim(topo, em, rackWatts, spotGrants, escalationSeverity)
}

// Tenant agents (internal/tenant) and workload models (internal/workload).
type (
	// Agent is a tenant participating in the market.
	Agent = tenant.Agent
	// Sprint is a latency-sensitive (sprinting) tenant agent.
	Sprint = tenant.Sprint
	// Opp is a delay-tolerant (opportunistic) tenant agent.
	Opp = tenant.Opp
	// BundledSprint is a multi-rack tenant bidding a bundled demand vector.
	BundledSprint = tenant.BundledSprint
	// Tier is one rack of a BundledSprint.
	Tier = tenant.Tier
	// BidPolicy selects a bidding strategy.
	BidPolicy = tenant.BidPolicy
	// MarketHint carries strategic bidders' price information.
	MarketHint = tenant.MarketHint
	// LatencyModel is a tail-latency workload's power-performance model.
	LatencyModel = workload.LatencyModel
	// ThroughputModel is a batch workload's power-performance model.
	ThroughputModel = workload.ThroughputModel
	// SprintCost is the linear + quadratic-beyond-SLO cost model.
	SprintCost = workload.SprintCost
	// OppCost is the linear completion-time cost model.
	OppCost = workload.OppCost
	// LoadTrace is a sampled load or power time series.
	LoadTrace = trace.Power
)

// Bidding policies (re-exported from internal/tenant).
const (
	PolicyElastic      = tenant.PolicyElastic
	PolicySimple       = tenant.PolicySimple
	PolicyStep         = tenant.PolicyStep
	PolicyFull         = tenant.PolicyFull
	PolicyPricePredict = tenant.PolicyPricePredict
)

// Simulation (internal/sim).
type (
	// Scenario describes a simulation run.
	Scenario = sim.Scenario
	// SimMode selects SpotDC, PowerCapped or MaxPerf.
	SimMode = sim.Mode
	// RunOptions tunes a simulation run.
	RunOptions = sim.RunOptions
	// SimResult is a simulation outcome with per-tenant statistics.
	SimResult = sim.Result
	// TenantStats accumulates one tenant's metrics over a run.
	TenantStats = sim.TenantStats
	// TestbedOptions parameterizes the Table I scenario.
	TestbedOptions = sim.TestbedOptions
	// ScaledOptions parameterizes the large-scale scenario.
	ScaledOptions = sim.ScaledOptions
	// NetRunOptions configures a networked scenario run with an injected
	// fault schedule.
	NetRunOptions = sim.NetRunOptions
	// NetResult is the outcome of a networked scenario run.
	NetResult = sim.NetResult
	// NetTenantStats is one tenant's view of a networked run.
	NetTenantStats = sim.NetTenantStats
)

// Simulation modes.
const (
	ModeSpotDC      = sim.ModeSpotDC
	ModePowerCapped = sim.ModePowerCapped
	ModeMaxPerf     = sim.ModeMaxPerf
)

// Testbed builds the paper's Table I scenario.
func Testbed(opt TestbedOptions) (Scenario, error) { return sim.Testbed(opt) }

// Scaled builds the replicated large-scale scenario (Fig. 18).
func Scaled(opt ScaledOptions) (Scenario, error) { return sim.Scaled(opt) }

// Run simulates a scenario.
func Run(sc Scenario, opts RunOptions) (*SimResult, error) { return sim.Run(sc, opts) }

// NetRun executes a scenario's market over real TCP connections under an
// injected fault schedule — the Section III-C robustness harness.
func NetRun(sc Scenario, opts NetRunOptions) (*NetResult, error) { return sim.NetRun(sc, opts) }

// TenantCost computes a tenant's total cost over a run (subscription +
// energy + spot payments).
func TenantCost(r *SimResult, pricing Pricing, name string) (float64, error) {
	return sim.TenantCost(r, pricing, name)
}

// Network protocol (internal/proto — the Fig. 5 operator↔tenant API).
type (
	// MarketServer is the operator-side protocol endpoint.
	MarketServer = proto.Server
	// MarketServerOptions tunes server robustness: session expiry, the bid
	// acceptance window, and connection wrapping (fault injection).
	MarketServerOptions = proto.ServerOptions
	// MarketClient is the tenant-side protocol endpoint.
	MarketClient = proto.Client
	// MarketClientOptions tunes client robustness: auto-reconnect with
	// seeded exponential backoff and re-registration.
	MarketClientOptions = proto.ClientOptions
	// RackBid is the wire form of the four-parameter demand function.
	RackBid = proto.RackBid
	// Grant is one rack's allocation in a price broadcast.
	Grant = proto.Grant
	// RackResolver maps wire rack IDs to market rack indices.
	RackResolver = proto.RackResolver
	// WireEncoding selects a client's frame encoding
	// (MarketClientOptions.Wire): WireJSON or WireBinary.
	WireEncoding = proto.Encoding
	// MarketWirePolicy restricts which encodings a server accepts
	// (MarketServerOptions.Wire); the default accepts both.
	MarketWirePolicy = proto.WirePolicy
)

// Wire encodings and server acceptance policies. The server answers each
// connection in whichever encoding it opened with, so JSON and binary
// tenants interoperate in one fleet.
const (
	WireJSON   = proto.WireJSON
	WireBinary = proto.WireBinary

	WireAny        = proto.WireAny
	WireJSONOnly   = proto.WireJSONOnly
	WireBinaryOnly = proto.WireBinaryOnly
)

// ParseWireEncoding parses a -wire flag value ("json" or "binary").
func ParseWireEncoding(s string) (WireEncoding, error) { return proto.ParseEncoding(s) }

// ParseMarketWirePolicy parses a server -wire flag value ("any", "json" or
// "binary").
func ParseMarketWirePolicy(s string) (MarketWirePolicy, error) { return proto.ParseWirePolicy(s) }

// ErrNoPrice reports a missed price broadcast; the tenant then defaults to
// no spot capacity (Section III-C).
var ErrNoPrice = proto.ErrNoPrice

// ErrBreakerOpen tags slots degraded by the market loop's circuit breaker,
// and ErrReconnectFailed reports an exhausted client reconnect schedule.
var (
	ErrBreakerOpen     = proto.ErrBreakerOpen
	ErrReconnectFailed = proto.ErrReconnectFailed
)

// Protocol fault injection (internal/proto): deterministic drop / delay /
// sever schedules for robustness testing of the Section III-C exception
// semantics.
type (
	// FaultPlan is a seeded per-write fault schedule.
	FaultPlan = proto.FaultPlan
	// FaultInjector applies a FaultPlan to connections.
	FaultInjector = proto.FaultInjector
	// FaultStats counts injected faults.
	FaultStats = proto.FaultStats
)

// NewFaultInjector validates a plan and builds an injector; Wrap applied to
// a net.Conn (or Dial used as a client dialer) enforces the schedule.
func NewFaultInjector(plan FaultPlan) (*FaultInjector, error) {
	return proto.NewFaultInjector(plan)
}

// Market node: the operator side of a networked deployment (Fig. 5/6),
// assembled in one place.
type (
	// MarketNode is an assembled operator node: operator, protocol server,
	// optional WAL recovery and slot journal, slot clock and market loop.
	MarketNode = node.Node
	// MarketNodeConfig describes one market node.
	MarketNodeConfig = node.Config
	// MarketLoop drives Algorithm 1 over the network per slot boundary.
	MarketLoop = proto.MarketLoop
)

// NewMarketNode builds a market node from its config: operator (and rack
// PDU emulators when the emergency loop is armed), server, WAL recovery
// when a state dir is given, journal, clock and loop. cmd/spotdc-operator
// is a thin wrapper around it.
func NewMarketNode(cfg MarketNodeConfig) (*MarketNode, error) { return node.New(cfg) }

// NewMarketServer starts the operator-side protocol endpoint.
func NewMarketServer(addr string, resolve RackResolver) (*MarketServer, error) {
	return proto.NewServer(addr, resolve)
}

// DialMarket connects a tenant to the operator and registers its racks.
func DialMarket(addr, tenantName string, racks []string) (*MarketClient, error) {
	return proto.Dial(addr, tenantName, racks)
}

// DialMarketOpts connects with explicit robustness options (auto-reconnect
// with backoff, custom dialer).
func DialMarketOpts(addr, tenantName string, racks []string, opts MarketClientOptions) (*MarketClient, error) {
	return proto.DialOpts(addr, tenantName, racks, opts)
}

// Power capping (internal/capping).
type (
	// CapController is the PI power-capping controller tenants use to
	// honour changing budgets (guaranteed + spot).
	CapController = capping.Controller
	// CapConfig parameterizes a CapController.
	CapConfig = capping.Config
	// ServerModel is the actuator→power plant model.
	ServerModel = capping.ServerModel
)

// NewCapController builds a power-capping controller.
func NewCapController(cfg CapConfig) (*CapController, error) { return capping.New(cfg) }

// Billing (internal/billing).
type (
	// Invoice is one tenant's bill for a period.
	Invoice = billing.Invoice
	// InvoiceItem is one line of an Invoice.
	InvoiceItem = billing.LineItem
	// Ledger accumulates per-slot usage into invoices.
	Ledger = billing.Ledger
)

// NewLedger builds a billing ledger under the given pricing.
func NewLedger(pricing Pricing) (*Ledger, error) { return billing.NewLedger(pricing) }

// Invoices builds every tenant's invoice from a finished simulation run.
func Invoices(res *SimResult, pricing Pricing) ([]Invoice, error) {
	return billing.FromSimResult(res, pricing)
}

// Declarative configuration (internal/config).
type (
	// ScenarioConfig is the JSON-serializable scenario description used by
	// cmd/spotdc-sim -config.
	ScenarioConfig = config.Scenario
)

// LoadScenarioConfig reads a scenario configuration file.
func LoadScenarioConfig(path string) (*ScenarioConfig, error) { return config.Load(path) }

// Experiments (internal/experiments).
type (
	// ExperimentReport is a printable experiment result.
	ExperimentReport = experiments.Report
	// ExperimentOptions tunes experiment horizons and scales.
	ExperimentOptions = experiments.Options
)

// Experiments lists the available experiment IDs (table1, fig2b, ...).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Run(id, opt)
}

// RunAllExperiments regenerates every table and figure, fanning the
// experiments out across opt.Workers goroutines (0 = GOMAXPROCS). Reports
// come back in sorted-ID order and are bit-identical at any worker count.
func RunAllExperiments(opt ExperimentOptions) ([]*ExperimentReport, error) {
	return experiments.RunAll(opt)
}

// Observability (internal/metrics): an allocation-free metrics registry
// with Prometheus text exposition, plus the structured per-slot event
// journal. Instrumentation is strictly opt-in — every layer accepts a nil
// metrics handle and skips all bookkeeping.
type (
	// MetricsRegistry holds every registered metric family and renders a
	// deterministic Prometheus text snapshot.
	MetricsRegistry = metrics.Registry
	// MarketMetrics instruments market clearings (handles for
	// MarketOptions.Metrics).
	MarketMetrics = core.MarketMetrics
	// MarketProtoMetrics instruments the wire protocol: sessions,
	// reconnects, bid rejections and injected faults (handles for
	// MarketServerOptions.Metrics / MarketClientOptions.Metrics /
	// FaultInjector.SetMetrics).
	MarketProtoMetrics = proto.Metrics
	// SlotJournal appends one structured SlotEvent JSON line per market
	// slot (MarketLoop.Journal).
	SlotJournal = metrics.Journal
	// SlotEvent is one journal line: price, volume, revenue, degradation
	// and fault counters for a slot; schema-v2 events additionally carry
	// the slot's full inputs for deterministic replay.
	SlotEvent = metrics.SlotEvent
	// SlotJournalHeader is the schema-v2 journal's first line: the static
	// configuration (topology, market options, slot length) a replay needs.
	SlotJournalHeader = metrics.JournalHeader

	// Auditor is the market core's inline conservation checker (attach via
	// MarketOptions.Audit): it re-verifies the settlement invariants —
	// grant envelopes, hierarchical capacity, revenue arithmetic — after
	// every clearing, allocation-free.
	Auditor = core.Auditor
	// AuditOptions tunes an offline journal check (see ReplayJournal).
	AuditOptions = audit.Options
	// AuditReport summarizes an offline journal check.
	AuditReport = audit.Report
	// AuditViolation is one failed invariant in an AuditReport.
	AuditViolation = audit.Violation
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMarketMetrics registers the market-clearing families on r.
func NewMarketMetrics(r *MetricsRegistry) *MarketMetrics { return core.NewMarketMetrics(r) }

// NewSlotJournal builds a journal writing JSON lines to w.
func NewSlotJournal(w io.Writer) *SlotJournal { return metrics.NewJournal(w) }

// ReadSlotJournal parses a slot journal (v1 or v2); the header is nil for
// a v1 journal.
func ReadSlotJournal(r io.Reader) (*SlotJournalHeader, []SlotEvent, error) {
	return metrics.ReadJournal(r)
}

// ReplayJournal reads a slot journal and re-verifies every invariant its
// schema supports: outcome-level conservation for v1 journals, full
// deterministic replay through the clearing engines for v2 (see
// internal/audit and cmd/spotdc-audit). Violations are reported, not
// returned as the error — inspect AuditReport.Err.
func ReplayJournal(r io.Reader, opts AuditOptions) (*AuditReport, error) {
	return audit.Replay(r, opts)
}

// EnableWorkerPoolMetrics instruments the process-wide parallel worker
// pools (scenario fan-out, intra-slot agent parallelism) on r.
func EnableWorkerPoolMetrics(r *MetricsRegistry) { par.EnableMetrics(r) }

// ServeMetrics serves GET /metrics (Prometheus text format 0.0.4) and
// /healthz on addr. It returns the bound address (useful with ":0") and a
// shutdown function.
func ServeMetrics(addr string, r *MetricsRegistry) (boundAddr string, shutdown func() error, err error) {
	return metrics.Serve(addr, r)
}

// MetricsHandler returns the /metrics exposition handler for embedding in
// an existing HTTP server.
func MetricsHandler(r *MetricsRegistry) http.Handler { return metrics.Handler(r) }

// MetricsMuxOptions extends the scrape mux: opt-in /debug/pprof/* handlers
// and extra routes (e.g. the /debug/traces handler below).
type MetricsMuxOptions = metrics.MuxOptions

// ServeMetricsOpts is ServeMetrics with MetricsMuxOptions.
func ServeMetricsOpts(addr string, r *MetricsRegistry, o MetricsMuxOptions) (boundAddr string, shutdown func() error, err error) {
	return metrics.ServeOpts(addr, r, o)
}

// Distributed tracing (internal/otrace): slot-lifecycle spans across the
// operator, the wire, and tenant clients, exported as a JSONL span journal
// and Chrome trace-event JSON (Perfetto/chrome://tracing). Strictly opt-in:
// a nil *Tracer disables every span site at the cost of one branch. See
// DESIGN §4i.
type (
	// Tracer records spans into a fixed-capacity ring and an optional JSONL
	// journal. Wire one instance into MarketLoop.Tracer,
	// MarketServerOptions.Tracer and OperatorConfig.Tracer (operator plane),
	// or MarketClientOptions.Tracer (tenant plane).
	Tracer = otrace.Tracer
	// TracerOptions configures NewTracer: sampling cadence, ring capacity,
	// journal writer, slow-slot percentile, metrics.
	TracerOptions = otrace.Options
	// TracerMetrics exposes the otrace_* metric families (handles for
	// TracerOptions.Metrics).
	TracerMetrics = otrace.TracerMetrics
	// Span is one recorded operation; nil is a valid no-op span.
	Span = otrace.Span
	// SpanContext identifies a span for cross-process propagation
	// (trace/span IDs plus the sampling decision).
	SpanContext = otrace.SpanContext
	// SpanRecord is one exported span as written to the JSONL journal.
	SpanRecord = otrace.SpanRecord
)

// NewTracer builds a tracer.
func NewTracer(o TracerOptions) *Tracer { return otrace.NewTracer(o) }

// NewTracerMetrics registers the otrace_* families on r.
func NewTracerMetrics(r *MetricsRegistry) *TracerMetrics { return otrace.NewTracerMetrics(r) }

// ReadSpans parses a JSONL span journal, tolerating a torn final line.
func ReadSpans(r io.Reader) ([]SpanRecord, error) { return otrace.ReadSpans(r) }

// WriteChromeTrace renders spans as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	return otrace.WriteChromeTrace(w, spans)
}

// ValidateChromeTrace checks that data is well-formed Chrome trace-event
// JSON as produced by WriteChromeTrace.
func ValidateChromeTrace(data []byte) error { return otrace.ValidateChromeTrace(data) }

// FormatTraceparent renders a span context as the wire traceparent field.
func FormatTraceparent(sc SpanContext) string { return otrace.FormatTraceparent(sc) }

// ParseTraceparent parses a wire traceparent field.
func ParseTraceparent(s string) (SpanContext, error) { return otrace.ParseTraceparent(s) }

// TraceHandler serves the tracer's ring as JSON (mount at /debug/traces;
// filter with ?slot=N).
func TraceHandler(t *Tracer) http.Handler { return otrace.TraceHandler(t) }

// Durable operator state (internal/wal + internal/proto): an append-only
// segmented write-ahead log with periodic snapshots, and crash recovery
// that resumes the market at the slot after the last committed record.
// Durability is strictly opt-in: set MarketNodeConfig.WAL.Dir and
// NewMarketNode opens, recovers and commits to the log. See DESIGN §4h.
type (
	// WriteAheadLog is the append-only segmented log (CRC32C-framed
	// records, configurable fsync policy, snapshot-driven compaction).
	WriteAheadLog = wal.Log
	// WALOptions configures a node's log (MarketNodeConfig.WAL: state
	// directory, fsync policy, segment size).
	WALOptions = wal.Options
	// WALSyncPolicy selects the fsync discipline (record / slot / timer).
	WALSyncPolicy = wal.SyncPolicy

	// MarketRecovered reports what a node's recovery rebuilt
	// (MarketNode.Recovered).
	MarketRecovered = proto.Recovered

	// OperatorCheckpoint is the operator's complete serializable state:
	// accumulated revenue and per-tenant payments as exact compensated-sum
	// terms, plus emergency-responder suspension state.
	OperatorCheckpoint = operator.Checkpoint
	// LedgerState is a billing ledger's serializable state (exact
	// compensated sums included).
	LedgerState = billing.LedgerState
)

// WAL fsync policies (the -fsync flag values: "record", "slot", "timer").
const (
	WALSyncEveryRecord = wal.SyncEveryRecord
	WALSyncEverySlot   = wal.SyncEverySlot
	WALSyncTimer       = wal.SyncTimer
)

// ParseWALSyncPolicy parses a -fsync flag value ("record", "slot", "timer").
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ReadSlotJournalInfo parses a slot journal like ReadSlotJournal and
// additionally reports whether the final line was torn mid-append (the
// signature of a crashed writer); the torn line is dropped, not an error.
func ReadSlotJournalInfo(r io.Reader) (*SlotJournalHeader, []SlotEvent, bool, error) {
	return metrics.ReadJournalInfo(r)
}

// RestoreLedger rebuilds a ledger from a serialized state, bit-identical
// to the original (compensated-sum terms restore exactly).
func RestoreLedger(st LedgerState) (*Ledger, error) { return billing.RestoreLedger(st) }
