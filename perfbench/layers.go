package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"resizecache/internal/bpred"
	"resizecache/internal/cache"
	"resizecache/internal/core"
	"resizecache/internal/cpu"
	"resizecache/internal/runner"
	"resizecache/internal/sim"
	"resizecache/internal/simd"
	simdclient "resizecache/internal/simd/client"
	"resizecache/internal/simd/wire"
	"resizecache/internal/workload"
)

// stubLevel is a perfect memory: every access completes next cycle. The
// engine and cache layers run over it so their own time is measured
// without the rest of the hierarchy.
type stubLevel struct{}

func (stubLevel) Access(now, _ uint64, _ bool) uint64 { return now + 1 }
func (stubLevel) Warm(uint64, bool)                   {}
func (stubLevel) Finalize(uint64)                     {}
func (stubLevel) EnergyPJ() float64                   { return 0 }

// appStream is the part of an app's event stream the front-end and
// cache layers consume.
type appStream struct {
	branchPC  []uint64
	taken     []bool
	transfers [][2]uint64 // taken control transfers: pc, target
	addrs     []uint64
	writes    []bool
}

func perOp(d time.Duration, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// layerPass drives each simulator layer's public functions with the
// workload's own apps and instruction budgets, and probes the store and
// wire layers with a small fixed exercise. It returns the metrics it
// measures directly; span-derived metrics come from spanMetrics.
func layerPass(ctx context.Context, b *bench, tr *tracer, dir string) (map[string]summary, error) {
	m := map[string]summary{}
	n := int(b.instr)
	l1 := sim.Default(b.apps[0]).DCache.Geom

	// workload: event synthesis and sampled fast-forward.
	var streams []appStream
	var nextD, skipD time.Duration
	var nextOps, skipOps int
	skipLen := sim.DefaultSampling().SkipInstructions
	for _, app := range b.apps {
		gen := workload.NewGenerator(workload.MustGet(app))
		events := make([]workload.Event, n)
		t := time.Now()
		got := 0
		for got < n && gen.Next(&events[got]) {
			got++
		}
		nextD += time.Since(t)
		nextOps += got
		events = events[:got]

		var s appStream
		for k, ev := range events {
			switch ev.Kind {
			case workload.KindBranch:
				s.branchPC = append(s.branchPC, ev.PC)
				s.taken = append(s.taken, ev.Taken)
			case workload.KindLoad, workload.KindStore:
				s.addrs = append(s.addrs, ev.Addr)
				s.writes = append(s.writes, ev.Kind == workload.KindStore)
			}
			taken := ev.Kind == workload.KindCall || ev.Kind == workload.KindReturn ||
				(ev.Kind == workload.KindBranch && ev.Taken)
			if taken && k+1 < len(events) {
				s.transfers = append(s.transfers, [2]uint64{ev.PC, events[k+1].PC})
			}
		}
		streams = append(streams, s)

		gen = workload.NewGenerator(workload.MustGet(app))
		t = time.Now()
		for k := 0; k < 2000; k++ {
			if gen.Skip(skipLen) < skipLen {
				gen = workload.NewGenerator(workload.MustGet(app))
			}
		}
		skipD += time.Since(t)
		skipOps += 2000
	}
	m["workload.next_ns"] = exact(perOp(nextD, nextOps), "ns")
	m["workload.skip_ns"] = exact(perOp(skipD, skipOps), "ns")

	// bpred: direction predictor and BTB over the apps' control flow.
	var trainD, btbD time.Duration
	var trainOps, btbOps int
	var lookups, mispredicts uint64
	for _, s := range streams {
		st := &bpred.Stats{P: bpred.NewDefault()}
		t := time.Now()
		for k, pc := range s.branchPC {
			st.PredictAndTrain(pc, s.taken[k])
		}
		trainD += time.Since(t)
		trainOps += len(s.branchPC)
		lookups += st.Lookups
		mispredicts += st.Mispredict

		btb := bpred.NewBTB(9, 4)
		t = time.Now()
		for _, tr := range s.transfers {
			btb.Lookup(tr[0])
			btb.Update(tr[0], tr[1])
		}
		btbD += time.Since(t)
		btbOps += len(s.transfers)
	}
	m["bpred.train_ns"] = exact(perOp(trainD, trainOps), "ns")
	m["bpred.btb_ns"] = exact(perOp(btbD, btbOps), "ns")
	if lookups > 0 {
		m["bpred.accuracy"] = exact(1-float64(mispredicts)/float64(lookups), "ratio")
	}

	// cache: the apps' data streams through the base L1 d-cache.
	newL1 := func() (*cache.Cache, error) {
		return cache.New(cache.Config{Name: "L1D", Geom: l1, HitLatency: 1,
			Energy: sim.Default(b.apps[0]).Energy, WritebackEntries: 8}, stubLevel{})
	}
	var hitD, missD time.Duration
	var hitOps, missOps int
	var accesses, misses uint64
	for _, s := range streams {
		c, err := newL1()
		if err != nil {
			return nil, err
		}
		var now uint64
		for k, a := range s.addrs {
			now = c.Access(now, a, s.writes[k]) + 1
		}
		accesses += c.Stat.Accesses.Value()
		misses += c.Stat.Misses.Value()

		// Resident blocks always hit; re-touching them times the hit path.
		var resident []uint64
		c.Contents(func(_, _ int, ln cache.Line) {
			if ln.Valid {
				resident = append(resident, ln.BlockAddr<<uint(l1.OffsetBits()))
			}
		})
		if len(resident) > 0 {
			t := time.Now()
			for k := range len(s.addrs) {
				now = c.Access(now, resident[k%len(resident)], false) + 1
			}
			hitD += time.Since(t)
			hitOps += len(s.addrs)
		}

		// Displacing every access by a distinct multiple of the set span
		// keeps its set index but names a block never cached: all miss.
		c, err = newL1()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		for k, a := range s.addrs {
			now = c.Access(now, a+uint64(k+1)<<24, s.writes[k]) + 1
		}
		missD += time.Since(t)
		missOps += len(s.addrs)
	}
	m["cache.access_hit_ns"] = exact(perOp(hitD, hitOps), "ns")
	m["cache.access_miss_ns"] = exact(perOp(missD, missOps), "ns")
	if accesses > 0 {
		m["cache.miss_ratio"] = exact(float64(misses)/float64(accesses), "ratio")
	}

	// core: a warm resizable cache stepped down its schedule and back up.
	var resizeD time.Duration
	var resizeOps int
	for _, org := range []core.Organization{core.SelectiveWays, core.SelectiveSets, core.Hybrid} {
		for _, s := range streams {
			rc, err := core.NewResizable(core.Options{Name: "L1D", Geom: l1, Org: org, HitLatency: 1,
				WritebackEntries: 8, Energy: sim.Default(b.apps[0]).Energy}, stubLevel{})
			if err != nil {
				return nil, err
			}
			var now uint64
			warm := func() {
				for k, a := range s.addrs[:min(len(s.addrs), 20_000)] {
					now = rc.Access(now, a, s.writes[k]) + 1
				}
			}
			for _, down := range []bool{true, false} {
				for {
					warm()
					t := time.Now()
					var ok bool
					if down {
						ok = rc.Downsize(now)
					} else {
						ok = rc.Upsize(now)
					}
					resizeD += time.Since(t)
					if !ok {
						break
					}
					resizeOps++
				}
			}
		}
	}
	m["core.resize_us"] = exact(perOp(resizeD, resizeOps)/1e3, "us")

	// cpu: each engine stepping over perfect-memory stubs.
	var oooD, inD, gangD time.Duration
	var instrs uint64
	for _, app := range b.apps {
		p := workload.MustGet(app)
		ooo, err := cpu.NewOutOfOrder(cpu.DefaultConfig(), stubLevel{}, stubLevel{}, bpred.NewDefault())
		if err != nil {
			return nil, err
		}
		t := time.Now()
		r := ooo.Run(workload.NewGenerator(p), b.instr)
		oooD += time.Since(t)
		instrs += r.Instructions

		in, err := cpu.NewInOrder(cpu.DefaultConfig(), stubLevel{}, stubLevel{}, bpred.NewDefault())
		if err != nil {
			return nil, err
		}
		t = time.Now()
		in.Run(workload.NewGenerator(p), b.instr)
		inD += time.Since(t)

		members := make([]cpu.GangMember, 8)
		for k := range members {
			members[k] = cpu.GangMember{IC: stubLevel{}, DC: stubLevel{}}
		}
		t = time.Now()
		if _, err := cpu.RunGangOutOfOrder(cpu.DefaultConfig(), bpred.NewDefault(), members,
			workload.NewGenerator(p), b.instr); err != nil {
			return nil, err
		}
		gangD += time.Since(t)
	}
	m["cpu.ooo_ns_per_instr"] = exact(perOp(oooD, int(instrs)), "ns/instr")
	m["cpu.inorder_ns_per_instr"] = exact(perOp(inD, int(instrs)), "ns/instr")
	m["cpu.gang8_ns_per_member_instr"] = exact(perOp(gangD, 8*int(instrs)), "ns/instr")

	// sim: whole simulations of the workload's configs.
	var runD, gang1D, gang8D time.Duration
	var simInstr uint64
	var results []sim.Result
	var cfgs []sim.Config
	for _, app := range b.apps {
		cfg := sim.Default(app)
		cfg.Instructions = b.instr
		t := time.Now()
		r, err := sim.Run(cfg)
		runD += time.Since(t)
		if err != nil {
			return nil, err
		}
		simInstr += cfg.Instructions
		results = append(results, r)
		cfgs = append(cfgs, cfg)

		t = time.Now()
		if _, err := sim.RunGang([]sim.Config{cfg}); err != nil {
			return nil, err
		}
		gang1D += time.Since(t)

		gang := gangConfigs(cfg)
		t = time.Now()
		rs, err := sim.RunGang(gang)
		gang8D += time.Since(t)
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
		cfgs = append(cfgs, gang...)
	}
	t := time.Now()
	const keyReps = 200
	for range keyReps {
		for _, cfg := range cfgs {
			cfg.Key()
		}
	}
	keyD := time.Since(t)
	m["sim.run_ns_per_instr"] = exact(perOp(runD, int(simInstr)), "ns/instr")
	m["sim.gang1_ns_per_instr"] = exact(perOp(gang1D, int(simInstr)), "ns/instr")
	m["sim.gang8_ns_per_member_instr"] = exact(perOp(gang8D, 8*int(simInstr)), "ns/instr")
	m["sim.key_ns"] = exact(perOp(keyD, keyReps*len(cfgs)), "ns")
	m["sim.run_allocs"] = exact(testing.AllocsPerRun(1, func() { sim.Run(cfgs[0]) }), "count")

	// sim, sampled: the serve-sampled schedule against an empty and then
	// a primed checkpoint store.
	var coldD, warmD time.Duration
	var sampledInstr uint64
	var ckpt *sizedCheckpoints
	var sampledCfg sim.Config
	for _, app := range b.apps {
		cfg := sim.Default(app)
		cfg.Instructions = serveInstr
		cfg.Sampling = sim.DefaultSampling()
		cs := &sizedCheckpoints{inner: runner.NewMemStore()}
		t := time.Now()
		if _, _, err := sim.RunWithCheckpoints(cfg, cs); err != nil {
			return nil, err
		}
		coldD += time.Since(t)
		t = time.Now()
		if _, ws, err := sim.RunWithCheckpoints(cfg, cs); err != nil || !ws.CheckpointHit {
			return nil, fmt.Errorf("sampled warm run of %s: hit=%v err=%v", app, ws.CheckpointHit, err)
		}
		warmD += time.Since(t)
		sampledInstr += cfg.Instructions
		if ckpt == nil {
			ckpt, sampledCfg = cs, cfg
		}
	}
	m["sim.sampled_cold_ns_per_instr"] = exact(perOp(coldD, int(sampledInstr)), "ns/instr")
	m["sim.sampled_warm_ns_per_instr"] = exact(perOp(warmD, int(sampledInstr)), "ns/instr")
	m["sim.sampled_allocs"] = exact(testing.AllocsPerRun(1, func() { sim.RunWithCheckpoints(sampledCfg, ckpt) }), "count")
	m["sim.checkpoint_bytes"] = exact(float64(len(ckpt.last)), "bytes")

	// wire: one recorded result frame through WriteFrame and ReadFrame.
	outcome, err := json.Marshal(b.outcome)
	if err != nil {
		return nil, err
	}
	frame := wire.Response{ID: 7, Kind: wire.KindResult, Index: 3, Outcome: outcome, Completed: 4, Total: 99}
	var buf bytes.Buffer
	const frames = 2000
	t = time.Now()
	for range frames {
		buf.Reset()
		if err := wire.WriteFrame(&buf, frame); err != nil {
			return nil, err
		}
		var got wire.Response
		if err := wire.ReadFrame(&buf, &got); err != nil {
			return nil, err
		}
	}
	m["wire.frame_us"] = exact(perOp(time.Since(t), frames)/1e3, "us")

	tr.probe.Store(true)
	defer tr.probe.Store(false)
	storeBytes, err := storeProbe(tr, dir, cfgs, results, ckpt.last, sampledCfg.WarmKey())
	if err != nil {
		return nil, err
	}
	m["runner.store_bytes"] = exact(float64(storeBytes), "bytes")
	if err := wireProbe(ctx, tr, dir); err != nil {
		return nil, err
	}
	return m, nil
}

// gangConfigs is the 8-member same-front-end sweep of one config: four
// d-cache capacities at two associativities.
func gangConfigs(base sim.Config) []sim.Config {
	var out []sim.Config
	for _, assoc := range []int{2, 4} {
		for _, kb := range []int{8, 16, 32, 64} {
			cfg := base
			cfg.DCache.Geom.SizeBytes = kb << 10
			cfg.DCache.Geom.Assoc = assoc
			out = append(out, cfg)
		}
	}
	return out
}

// sizedCheckpoints remembers the last checkpoint payload recorded.
type sizedCheckpoints struct {
	inner sim.CheckpointStore
	last  []byte
}

func (s *sizedCheckpoints) LookupArtifact(k sim.Key) ([]byte, bool) { return s.inner.LookupArtifact(k) }
func (s *sizedCheckpoints) RecordArtifact(k sim.Key, data []byte) {
	s.last = append([]byte(nil), data...)
	s.inner.RecordArtifact(k, data)
}

// storeProbe exercises a small DiskStore through the timing decorator:
// open, record and look up the layer pass's results, one checkpoint
// artifact, and a flush. It returns the flushed file's size.
func storeProbe(tr *tracer, dir string, cfgs []sim.Config, results []sim.Result, ckpt []byte, ckptKey sim.Key) (int64, error) {
	path := filepath.Join(dir, "probe-store.json")
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	open := tr.begin("store.open", -1, -1)
	ds, err := runner.OpenDiskStore(path)
	open.end(0)
	if err != nil {
		return 0, err
	}
	s := wrapStore(ds, tr, hooks{})
	keys := make([]sim.Key, len(cfgs))
	for k, cfg := range cfgs {
		keys[k] = cfg.Key()
		s.Record(keys[k], runner.StoredResult{Result: results[k]})
	}
	for range 20 {
		for _, k := range keys {
			if _, ok := s.Lookup(k); !ok {
				return 0, errors.New("store probe: recorded result not found")
			}
		}
	}
	s.RecordArtifact(ckptKey, ckpt)
	for range 20 {
		if _, ok := s.LookupArtifact(ckptKey); !ok {
			return 0, errors.New("store probe: recorded checkpoint not found")
		}
	}
	if err := s.Flush(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// wireProbe pings an in-process daemon through the connection decorator.
func wireProbe(ctx context.Context, tr *tracer, dir string) (err error) {
	sock := filepath.Join(dir, "probe.sock")
	if err := os.Remove(sock); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	srv, err := simd.New(simd.Options{})
	if err != nil {
		return err
	}
	ln, err := simd.Listen("unix:" + sock)
	if err != nil {
		return err
	}
	serveCtx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(serveCtx, wrapListener(ln, tr, hooks{})) }()
	defer func() {
		stop()
		if serr := <-served; serr != nil && err == nil {
			err = serr
		}
	}()
	conn, err := simdclient.Dial("unix:" + sock)
	if err != nil {
		return err
	}
	defer conn.Close()
	for range 300 {
		a := tr.begin("client.ping", -1, -1)
		err := conn.Ping(ctx)
		a.end(0)
		if err != nil {
			return err
		}
	}
	return nil
}
