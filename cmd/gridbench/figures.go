package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
)

// figure is one row of the figure table, the only list of figures in
// this command: the default run, -fig validation with its usage and
// error texts, the backend checks, the render loop, the trace
// companions and the tests (golden files, parallel determinism) are all
// derived from it. Adding a figure is adding a row (DESIGN.md, "Adding
// a figure").
type figure struct {
	name  string // the -fig value; upper-cased, the banner's label
	title string
	sub   string // the banner's second line: what is plotted
	extra bool   // not part of the default (no -fig) run
	// backends are the -backend values that can run the figure (none
	// listed: sim and live); why says what keeps the others out.
	backends []string
	why      string
	// single is set for a figure that plots one discipline: under
	// tracing it is re-rendered, silently, for the disciplines it does
	// not plot, so one trace compares all three on the same seed.
	single *core.Discipline
	render renderFunc
	// goldens are the pinned invocations, each "file args...": the
	// arguments after -fig name whose output testdata/<file>.golden holds.
	goldens []string
}

// renderFunc runs the figure and prints what follows the banner. d is
// *single, or a companion's discipline; sweep figures ignore it.
type renderFunc func(r *renderer, f *figure, opt expt.Options, d core.Discipline) error

func one(d core.Discipline) *core.Discipline { return &d }

// everywhere lists every backend: the figures of the submit and lease
// scenarios run on gridd too, their FD table on the daemon.
var everywhere = []string{expt.BackendSim, expt.BackendLive, expt.BackendGridd}

// sweepFigure renders a figure that is a list of tables with note lines
// between them (renderer.show).
func sweepFigure(run func(r *renderer, opt expt.Options) []any) renderFunc {
	return func(r *renderer, _ *figure, opt expt.Options, _ core.Discipline) error {
		r.show(run(r, opt)...)
		return nil
	}
}

var figures = []figure{
	{name: "1", title: "Scalability of Job Submission", sub: "jobs submitted in 5 minutes vs number of submitters",
		backends: everywhere,
		render:   sweepFigure(func(_ *renderer, opt expt.Options) []any { return []any{expt.Fig1(opt)} }),
		goldens:  []string{"fig1_table -scale 0.1"}},
	{name: "2", title: "Timeline of Aloha Submitter", sub: "available FDs and cumulative jobs, 400 clients, 30 minutes",
		single: one(core.Aloha), backends: everywhere, render: submitTimeline,
		goldens: []string{"fig2_table -scale 0.1", "fig2_table -scale 0.1 -backend gridd"}},
	{name: "3", title: "Timeline of Ethernet Submitter", sub: "available FDs and cumulative jobs, 400 clients, 30 minutes",
		single: one(core.Ethernet), backends: everywhere, render: submitTimeline,
		goldens: []string{"fig3_table -scale 0.1", "fig3_table -scale 0.1 -backend gridd"}},
	{name: "4", title: "Buffer Throughput", sub: "total files consumed vs number of producers",
		render:  sweepFigure(func(r *renderer, opt expt.Options) []any { return []any{r.bufferSweep(opt).Consumed} }),
		goldens: []string{"fig4_table -scale 0.1"}},
	{name: "5", title: "Buffer Collisions", sub: "total write collisions vs number of producers",
		render:  sweepFigure(func(r *renderer, opt expt.Options) []any { return []any{r.bufferSweep(opt).Collisions} }),
		goldens: []string{"fig5_table -scale 0.1"}},
	{name: "6", title: "Aloha File Reader", sub: "cumulative transfers and collisions over 900 seconds",
		single: one(core.Aloha), render: readerTimeline, goldens: []string{"fig6_table -scale 0.2"}},
	{name: "7", title: "Ethernet File Reader", sub: "cumulative transfers and deferrals over 900 seconds",
		single: one(core.Ethernet), render: readerTimeline,
		goldens: []string{"fig7_table -scale 0.2", "fig7_tsv -scale 0.2 -format tsv", "fig7_chaos -scale 0.2 -chaos mixed -check"}},
	{name: "la", title: "Limited Allocation Ablation", sub: "Ethernet submitters under stuck-holder chaos, leased vs unleased FD tenure",
		backends: everywhere,
		render: sweepFigure(func(_ *renderer, opt expt.Options) []any {
			la := expt.FigLA(opt)
			return []any{la.Throughput, "# fairness: Jain's index x100, watchdog revocations, starvation excursions, longest unleased wait", la.Fairness}
		}),
		goldens: []string{"figla_table -scale 0.1", "figla_trace_summary -scale 0.1 -trace-summary"}},
	{name: "res", title: "Reservation Ablation", sub: "admission-booked vs leased Ethernet submitters, fault-free and under res-flap chaos",
		render: sweepFigure(func(_ *renderer, opt expt.Options) []any {
			ra := expt.FigRes(opt)
			return []any{ra.Throughput, "# admission: book rejections (steady/flap), dead windows and lapses under flap, Ethernet flap crashes", ra.Admission}
		}),
		goldens: []string{"figres_table -scale 0.1", "figres_trace_summary -scale 0.1 -trace-summary"}},
	{name: "net", title: "Unreliable Channel Ablation", sub: "fenced vs unfenced submitters under dup-storm and part-flap channel chaos",
		render: sweepFigure(func(_ *renderer, opt expt.Options) []any {
			na := expt.FigNet(opt)
			return []any{na.Throughput,
				"# integrity: phantom jobs and double-allocations (unfenced arms); fence rejections and deduplicated retries (fenced arms)", na.Integrity,
				"# channel: submit-path request drops, lease-wire drops/dups, watchdog revocations (fenced arms)", na.Channel}
		}),
		goldens: []string{"fignet_table -scale 0.1", "fignet_trace_summary -scale 0.1 -trace-summary"}},
	{name: "abl", title: "Ablations", sub: "backoff randomization, backoff cap, carrier threshold, probe timeout (DESIGN.md §6)",
		extra: true, backends: []string{expt.BackendSim}, why: "the arms of an ablation share a seed, which only the simulator replays",
		render: sweepFigure(func(_ *renderer, opt expt.Options) []any {
			a := expt.FigAbl(opt)
			return []any{"# randomization: frames delivered and collisions of Aloha stations on the channel, random vs lockstep backoff", a.Randomization,
				"# backoff cap: jobs and schedd crashes of Aloha submitters per cap", a.Cap,
				"# carrier threshold: jobs and schedd crashes of Ethernet submitters per threshold, in % of the FD table", a.Threshold,
				"# probe timeout: transfers and deferrals of Ethernet readers per probe budget", a.Probe}
		}),
		goldens: []string{"figabl_table -scale 0.25"}},
	{name: "ext", title: "Extension Experiments", sub: "Chimera DAG dispatcher, NeST-style reservation, the disciplines on a collision channel",
		extra: true, backends: []string{expt.BackendSim}, why: "the arms of an experiment share a seed, which only the simulator replays",
		render: sweepFigure(func(_ *renderer, opt expt.Options) []any {
			x := expt.FigExt(opt)
			return []any{"# DAG: makespan (s) of a 15-node DAG per dispatcher discipline, and the Aloha crowd's jobs", x.DAG,
				"# reservation: files consumed, write collisions and allocator denials, reserving vs Ethernet producers", x.Reservation,
				"# channel: frames delivered and collisions per discipline", x.Channel,
				"# channel: utilization (% of the window the medium was busy)", x.Utilization}
		}),
		goldens: []string{"figext_table -scale 0.25"}},
	{name: "scale", title: "Million-Client Engine Sweep", sub: "lightweight Ethernet clients on shared carrier, 60 virtual seconds, engine-throughput benchmark",
		extra: true, backends: []string{expt.BackendSim}, why: "a million wall-clock timers is a load test, not a measurement",
		render: sweepFigure(func(_ *renderer, opt expt.Options) []any {
			sc := expt.FigScale(opt)
			parts := []any{sc.Table}
			for _, c := range sc.Cells {
				parts = append(parts, fmt.Sprintf("# timing: n=%d wall=%v events/s=%.0f", c.Clients, c.Wall.Round(time.Millisecond), c.EventsPerSec()))
			}
			return parts
		}),
		goldens: []string{"figscale_table -scale 0.01"}},
}

func submitTimeline(r *renderer, f *figure, opt expt.Options, d core.Discipline) error {
	tl := expt.RunSubmitTimeline(opt, "fig"+f.name, d)
	r.show(tl.Table(), fmt.Sprintf("# schedd crashes: %d", tl.Crashes))
	return nil
}

func readerTimeline(r *renderer, f *figure, opt expt.Options, d core.Discipline) error {
	tl := expt.RunReaderTimeline(opt, "fig"+f.name, d)
	penalty, n := "collisions", tl.TotalCollisions
	if d == core.Ethernet {
		penalty, n = "deferrals", tl.TotalDeferrals
	}
	r.show(tl.Table(), fmt.Sprintf("# totals: transfers=%d %s=%d", tl.TotalTransfers, penalty, n))
	return nil
}

// on lists the backends that can run the figure.
func (f *figure) on() []string {
	if f.backends == nil {
		return []string{expt.BackendSim, expt.BackendLive}
	}
	return f.backends
}

// figureNames lists the names of the rows keep accepts, in table order.
func figureNames(keep func(*figure) bool) []string {
	var names []string
	for i := range figures {
		if keep(&figures[i]) {
			names = append(names, figures[i].name)
		}
	}
	return names
}

// selectFigures resolves -fig (empty: the default run) against the
// table and the backend. The error is ready to print.
func selectFigures(name, backend string) ([]*figure, error) {
	var figs []*figure
	for i := range figures {
		if f := &figures[i]; f.name == name || name == "" && !f.extra {
			figs = append(figs, f)
		}
	}
	if len(figs) == 0 {
		var list strings.Builder
		for i := range figures {
			fmt.Fprintf(&list, "\n  %-6s %s", figures[i].name, figures[i].title)
		}
		return nil, fmt.Errorf("no such figure %s; the figures are:%s", name, list.String())
	}
	for _, f := range figs {
		if !slices.Contains(f.on(), backend) {
			why := ""
			if f.why != "" {
				why = " (" + f.why + ")"
			}
			serves := figureNames(func(g *figure) bool { return slices.Contains(g.on(), backend) })
			return nil, fmt.Errorf("-fig %s needs -backend=%s%s; -backend=%s serves only -fig %s",
				f.name, strings.Join(f.on(), " or "), why, backend, strings.Join(serves, ", "))
		}
	}
	return figs, nil
}

// runFigure prints f's banner and body, then, when tracing a
// single-discipline figure, re-renders it silently under the other
// disciplines — without the invariant suite, whose expectations are
// calibrated to the figure's own discipline.
func runFigure(r *renderer, f *figure, opt expt.Options) error {
	start := time.Now()
	r.header(strings.ToUpper(f.name), f.title, f.sub)
	var own core.Discipline
	if f.single != nil {
		own = *f.single
	}
	if err := f.render(r, f, opt, own); err != nil {
		return err
	}
	if f.single != nil && opt.Trace != nil {
		opt.Check = nil
		quiet := &renderer{w: io.Discard, stderr: io.Discard}
		for _, d := range core.Disciplines {
			if d != own {
				if err := f.render(quiet, f, opt, d); err != nil {
					return err
				}
			}
		}
	}
	fmt.Fprintf(r.w, "# generated in %v\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}
