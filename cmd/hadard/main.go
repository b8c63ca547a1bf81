// Command hadard runs the scheduler as a long-lived service: a
// steppable simulation engine owned by a single goroutine, fronted by
// a bounded admission queue and an HTTP control API.
//
// Usage:
//
//	hadard [-scheduler hadar] [-cluster sim|physical] [-addr :8080]
//	       [-clock virtual|wall] [-interval 50ms] [-queue 64]
//	       [-round 6] [-validate=true]
//	       [-clusters N] [-router round-robin|least-queue|affinity|price]
//	       [-wal DIR] [-recover] [-fsync always|group|off]
//	       [-fsync-interval 2ms] [-checkpoint-every 256]
//
// With -clusters N (N > 1) the daemon runs a federation: N independent
// member clusters, each with its own scheduler instance, advanced on
// one shared clock, with the -router policy picking the owning member
// for every submission at the front door. It is served by the same
// service loop (service.FedService) and the same HTTP handlers as a
// single cluster; job queries and unkeyed submissions additionally
// report the owning member. -wal is single-cluster only. Every flag is
// validated before either mode is set up: a bad value exits 2.
//
// The HTTP surface combines the dashboard (/, /jobs, /api/summary)
// with the live control API:
//
//	POST   /api/jobs      {"model": "ResNet-50", "workers": 2, "gpu_hours": 4}
//	GET    /api/jobs/{id} lifecycle phase + live/final detail
//	DELETE /api/jobs/{id} cancel a pending or running job
//	GET    /api/snapshot  full cluster snapshot + admission stats
//
// With -wal DIR every accepted mutation is journaled before its HTTP
// response, and -recover resumes from the journal after a crash: the
// engine is rebuilt from the latest checkpoint plus a replay of the
// journal tail, with every replayed round digest-verified against the
// original run. SIGINT/SIGTERM trigger a graceful shutdown — in-flight
// HTTP requests drain, the queue is rejected-and-emptied, the journal
// is flushed, and a final checkpoint is written, so the next -recover
// replays nothing.
//
// The HADARD_CRASH_AFTER_BYTES environment variable arms a crash
// failpoint for the chaos harness (cmd/crashchaos): the journal append
// that would cross that byte offset is torn partway through its frame
// and the process exits hard — a SIGKILL landing inside write(2).
//
// Smoke mode (-smoke) swaps the HTTP server for an internal closed-loop
// load drive: it generates a seeded workload, pushes it through the
// admission queue as fast as the engine absorbs it, waits for every
// accepted job to finish, and exits non-zero unless the run was clean
// (zero invariant violations, nonzero accepted submissions). CI runs
// this under -race.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/allox"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/web"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		os.Exit(2)
	}
	if cfg.opts.WAL != nil {
		cfg.opts.WAL.FailPoint = crashFailPoint()
	}
	s, _ := pickScheduler(cfg.schedName) // validated by parseFlags
	c, _ := pickCluster(cfg.clusterName)

	if cfg.clusters > 1 {
		members := make([]federation.MemberConfig, cfg.clusters)
		for i := range members {
			ms, _ := pickScheduler(cfg.schedName)
			mc, _ := pickCluster(cfg.clusterName)
			members[i] = federation.MemberConfig{Name: fmt.Sprintf("region%d", i), Cluster: mc, Scheduler: ms, Sim: cfg.opts.Sim}
		}
		fed, err := federation.New(members, cfg.router, federation.Options{Validate: cfg.opts.Sim.Validate})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
			os.Exit(1)
		}
		svc, err := service.NewFed(fed, cfg.opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
			os.Exit(1)
		}
		banner := fmt.Sprintf("hadard: %s federation — %d x %s clusters (%d GPUs total), %s router, %s clock, queue depth %d",
			s.Name(), cfg.clusters, cfg.clusterName, cfg.clusters*c.TotalGPUs(), cfg.router.Name(), cfg.opts.Clock, cfg.opts.QueueDepth)
		os.Exit(run(svc, cfg, banner, fedProgress, func(r *federation.Report) string { return r.Merged.Scheduler }))
	}

	svc, err := service.New(c, s, cfg.opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		os.Exit(1)
	}
	if r := svc.Recovery(); r != nil {
		doc, _ := json.Marshal(r)
		fmt.Printf("hadard: recovered: %s\n", doc)
	}
	banner := fmt.Sprintf("hadard: %s on %s cluster (%d GPUs), %s clock, queue depth %d",
		s.Name(), cfg.clusterName, c.TotalGPUs(), cfg.opts.Clock, cfg.opts.QueueDepth)
	os.Exit(run(svc, cfg, banner, engineProgress, func(r *metrics.Report) string { return r.Scheduler }))
}

// config is hadard's command line, every value already validated.
type config struct {
	schedName   string
	clusterName string
	addr        string
	addrFile    string
	drain       time.Duration
	clusters    int
	router      federation.Router
	opts        service.Options

	smoke        bool
	smokeLoad    loadgen.Config
	smokeTimeout time.Duration
}

// parseFlags parses and validates the command line. It checks every
// value, whichever mode the other flags select, before anything is
// built, so a bad value is always refused.
func parseFlags(args []string) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("hadard", flag.ContinueOnError)
	fs.StringVar(&cfg.schedName, "scheduler", "hadar", "scheduler: hadar, hadar-makespan, gavel, tiresias, yarn-cs, allox, ref-fifo, ref-srtf")
	fs.StringVar(&cfg.clusterName, "cluster", "sim", "cluster config: sim (60 GPUs) or physical (8 GPUs)")
	fs.StringVar(&cfg.addr, "addr", ":8080", "HTTP listen address")
	clockSel := fs.String("clock", "virtual", "round pacing: virtual (as fast as possible) or wall")
	interval := fs.Duration("interval", 50*time.Millisecond, "wall time per round boundary in -clock wall mode")
	queue := fs.Int("queue", 64, "admission queue depth (backpressure beyond this)")
	roundMin := fs.Float64("round", 6, "scheduling round length (simulated minutes)")
	validate := fs.Bool("validate", true, "run the invariant oracle on every round")
	fs.StringVar(&cfg.addrFile, "addr-file", "", "write the bound listen address to this file (use with -addr 127.0.0.1:0)")
	fs.DurationVar(&cfg.drain, "drain", 5*time.Second, "graceful-shutdown deadline for in-flight HTTP requests")

	fs.IntVar(&cfg.clusters, "clusters", 1, "number of federated member clusters (1 = single-cluster mode)")
	routerSel := fs.String("router", "least-queue", "federation routing policy: round-robin, least-queue, affinity, price")

	walDir := fs.String("wal", "", "write-ahead journal directory (empty = no durability)")
	recoverWAL := fs.Bool("recover", false, "resume from the journal and checkpoint in -wal")
	fsyncSel := fs.String("fsync", "group", "journal fsync policy: always, group, or off")
	fsyncEvery := fs.Duration("fsync-interval", 2*time.Millisecond, "longest a verdict waits for its group fsync (-fsync group)")
	ckptEvery := fs.Int("checkpoint-every", 256, "journal records between engine checkpoints")

	fs.BoolVar(&cfg.smoke, "smoke", false, "run the internal load-generator smoke test and exit")
	smokeJobs := fs.Int("smoke-jobs", 120, "smoke: number of jobs to generate")
	smokeModel := fs.String("smoke-model", "bursty", "smoke: arrival model poisson, diurnal, or bursty")
	smokeRate := fs.Float64("smoke-rate", 0.05, "smoke: mean arrival rate (jobs per virtual second)")
	smokeSeed := fs.Int64("smoke-seed", 1, "smoke: workload seed")
	fs.DurationVar(&cfg.smokeTimeout, "smoke-timeout", 120*time.Second, "smoke: wall-clock budget for the whole run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if _, err := pickScheduler(cfg.schedName); err != nil {
		return nil, err
	}
	if _, err := pickCluster(cfg.clusterName); err != nil {
		return nil, err
	}
	clock := service.VirtualClock
	switch *clockSel {
	case "virtual":
	case "wall":
		clock = service.WallClock
	default:
		return nil, fmt.Errorf("unknown clock %q", *clockSel)
	}
	if *walDir == "" && *recoverWAL {
		return nil, errors.New("-recover requires -wal")
	}
	if cfg.clusters < 1 {
		return nil, fmt.Errorf("-clusters must be at least 1, got %d", cfg.clusters)
	}
	if cfg.clusters > 1 && *walDir != "" {
		return nil, errors.New("-wal is not supported with -clusters > 1 (the journal covers a single engine)")
	}
	router, err := federation.NewRouter(*routerSel)
	if err != nil {
		return nil, err
	}
	pol, err := wal.ParsePolicy(*fsyncSel)
	if err != nil {
		return nil, err
	}
	var model loadgen.Model
	switch *smokeModel {
	case "poisson":
		model = loadgen.Poisson
	case "diurnal":
		model = loadgen.Diurnal
	case "bursty":
		model = loadgen.Bursty
	default:
		return nil, fmt.Errorf("unknown smoke model %q", *smokeModel)
	}

	simOpts := sim.DefaultOptions()
	simOpts.RoundLength = *roundMin * 60
	simOpts.Validate = *validate
	cfg.router = router
	cfg.opts = service.Options{Sim: simOpts, QueueDepth: *queue, Clock: clock, RoundInterval: *interval}
	if *walDir != "" {
		cfg.opts.WAL = &service.WALConfig{
			Dir:             *walDir,
			Policy:          pol,
			GroupInterval:   *fsyncEvery,
			CheckpointEvery: *ckptEvery,
			Recover:         *recoverWAL,
		}
	}
	cfg.smokeLoad = loadgen.Config{
		Model:     model,
		Jobs:      *smokeJobs,
		Seed:      *smokeSeed,
		Rate:      *smokeRate,
		Amplitude: 0.5,
		BurstSize: 16,
		BurstGap:  3600,
	}
	return cfg, nil
}

// served is what hadard runs, whichever mode: *service.Service or
// *service.FedService, publishing *S and finishing with *R.
type served[S, R any] interface {
	web.LiveService[S]
	Start()
	Stop() (*R, error)
}

// progress is what the smoke run reads from a published snapshot;
// detail breaks completions down per member in a federation.
type progress struct {
	completed, cancelled int
	now                  float64
	detail               string
}

func engineProgress(s *sim.Snapshot) progress {
	return progress{completed: s.Completed, cancelled: s.Cancelled, now: s.Now}
}

func fedProgress(s *federation.FedSnapshot) progress {
	perMember := make([]string, 0, len(s.Members))
	for i := range s.Members {
		perMember = append(perMember, fmt.Sprintf("%s=%d", s.Members[i].Name, s.Members[i].Snap.Completed))
	}
	return progress{completed: s.Completed, cancelled: s.Cancelled, now: s.Now,
		detail: " (" + strings.Join(perMember, " ") + ")"}
}

// run starts svc and either drives the smoke test or serves HTTP until
// a shutdown signal; it returns the process exit code. scheduler names
// the policy in a final report.
func run[S, R any](svc served[S, R], cfg *config, banner string, view func(*S) progress, scheduler func(*R) string) int {
	svc.Start()
	if cfg.smoke {
		return runSmoke(svc, cfg, view, scheduler)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		return 1
	}
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
			return 1
		}
	}
	fmt.Printf("%s — listening on %s\n", banner, ln.Addr())

	srv := &http.Server{Handler: web.NewLiveServer(svc).Handler()}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "hadard: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stopSignals() // a second signal kills immediately

	// Graceful shutdown: drain in-flight HTTP requests, then stop the
	// service — which rejects and empties the admission queue, flushes
	// deferred group commits, writes a final checkpoint, and closes the
	// journal. After this a -recover restart replays nothing.
	fmt.Println("hadard: shutdown signal — draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "hadard: http drain: %v\n", err)
	}
	if _, err := svc.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "hadard: stop: %v\n", err)
		return 1
	}
	fmt.Println("hadard: clean shutdown")
	return 0
}

// crashFailPoint arms the chaos harness's mid-append kill. When
// HADARD_CRASH_AFTER_BYTES=N is set, the journal append that would
// cross byte offset N is torn at a threshold-derived position inside
// the frame and the process exits hard a moment later, emulating a
// SIGKILL that lands inside write(2). The short grace lets the torn
// bytes reach the file before the exit.
func crashFailPoint() wal.FailPoint {
	env := os.Getenv("HADARD_CRASH_AFTER_BYTES")
	if env == "" {
		return nil
	}
	after, err := strconv.ParseInt(env, 10, 64)
	if err != nil || after < 0 {
		fmt.Fprintf(os.Stderr, "hadard: bad HADARD_CRASH_AFTER_BYTES %q\n", env)
		os.Exit(2)
	}
	tripped := make(chan struct{})
	go func() {
		<-tripped
		time.Sleep(10 * time.Millisecond)
		os.Exit(137)
	}()
	return func(offset int64, frame []byte) int {
		if offset+int64(len(frame)) <= after {
			return -1
		}
		close(tripped)
		return int(after % int64(len(frame)+1))
	}
}

func pickScheduler(name string) (sched.Scheduler, error) {
	switch name {
	case "hadar":
		return experiments.NewHadar(), nil
	case "hadar-makespan":
		return experiments.NewHadarMakespan(), nil
	case "gavel":
		return experiments.NewGavel(), nil
	case "tiresias":
		return experiments.NewTiresias(), nil
	case "yarn-cs":
		return experiments.NewYARNCS(), nil
	case "allox":
		return allox.New(), nil
	case "ref-fifo":
		return policy.New(policy.FIFO, true), nil
	case "ref-srtf":
		return policy.New(policy.SRTF, true), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q", name)
}

func pickCluster(name string) (*cluster.Cluster, error) {
	switch name {
	case "sim":
		return experiments.SimCluster(), nil
	case "physical":
		return experiments.PhysicalCluster(), nil
	}
	return nil, fmt.Errorf("unknown cluster %q", name)
}

// smokeReport is the JSON document the smoke run prints for CI logs.
type smokeReport struct {
	Scheduler   string         `json:"scheduler"`
	Model       string         `json:"model"`
	Drive       loadgen.Result `json:"drive"`
	SubmitRate  float64        `json:"sustained_submissions_per_s"`
	Stats       service.Stats  `json:"stats"`
	Completed   int            `json:"completed"`
	SimSeconds  float64        `json:"simulated_seconds"`
	WallSeconds float64        `json:"wall_seconds"`
}

// runSmoke drives a seeded workload through the service, waits for
// every accepted job to reach a terminal phase, and verifies the run
// was clean (zero invariant violations on every member). Returns the
// process exit code.
func runSmoke[S, R any](svc served[S, R], cfg *config, view func(*S) progress, scheduler func(*R) string) int {
	trace, err := loadgen.Generate(cfg.smokeLoad)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: smoke: %v\n", err)
		return 1
	}
	budget := cfg.smokeTimeout
	start := time.Now()
	res, err := loadgen.Drive(svc, trace, loadgen.DriveOptions{MaxDuration: budget})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: smoke: drive failed: %v\n", err)
		return 1
	}

	// Wait until every accepted job reaches a terminal phase, within
	// the wall budget.
	deadline := start.Add(budget)
	for {
		p := view(svc.Snapshot())
		if p.completed+p.cancelled >= res.Submitted {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "hadard: smoke: %d of %d jobs unfinished after %v\n",
				res.Submitted-p.completed-p.cancelled, res.Submitted, budget)
			return 1
		}
		time.Sleep(20 * time.Millisecond)
	}

	report, err := svc.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hadard: smoke: invariant violation or engine failure: %v\n", err)
		return 1
	}
	if res.Submitted == 0 {
		fmt.Fprintln(os.Stderr, "hadard: smoke: zero accepted submissions")
		return 1
	}

	p := view(svc.Snapshot())
	out := smokeReport{
		Scheduler:   scheduler(report),
		Model:       cfg.smokeLoad.Model.String(),
		Drive:       res,
		SubmitRate:  res.PerSecond(),
		Stats:       svc.Stats(),
		Completed:   p.completed,
		SimSeconds:  p.now,
		WallSeconds: time.Since(start).Seconds(),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "hadard: smoke: %v\n", err)
		return 1
	}
	fmt.Printf("hadard: smoke OK: %d jobs accepted, %d completed%s, %d rounds, 0 invariant violations\n",
		res.Submitted, p.completed, p.detail, svc.Stats().Rounds)
	return 0
}
