package sim

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"math"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/dbcp"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
)

// unsnapped lists the Snapshotter fields a checkpoint deliberately leaves
// out, each with the reason. TestSnapshotPerturbation requires every other
// field to reach the image, and every field listed here to stay out of it.
var unsnapped = map[string]string{
	"bus.Bus.bytesPerCycle":        "bandwidth configuration fixed at construction, not dynamic state",
	"cache.Cache.ways":             "derived from geom at construction; Snapshot validates geometry instead",
	"cache.Cache.pub":              "host-side registry mirror of st, republished after a decode",
	"cache.MSHRFile.capacity":      "geometry fixed at construction; bounds the decoded entry count",
	"cache.MSHRFile.free":          "free-frame list rebuilt with pool on decode",
	"cache.MSHRFile.ready":         "ready heap rebuilt with pool on decode",
	"cache.MSHRFile.count":         "in-flight tally mirroring the entry set, rebuilt with it on decode",
	"telemetry.Sampler.every":      "sampling-interval configuration fixed at construction",
	"telemetry.Sampler.onSample":   "host-side callback wiring; not serialisable",
	"telemetry.Sampler.scratch":    "scratch buffer, dead between samples",
	"telemetry.Sampler.maxSample":  "capacity fixed at construction; bounds the decoded samples",
	"prefetch.NextLine.geom":       "address geometry fixed at construction",
	"prefetch.NextLine.degree":     "prefetch-degree configuration fixed at construction",
	"prefetch.NextLine.reqs":       "scratch batch, dead between OnMiss calls by the Prefetcher contract",
	"prefetch.Stride.geom":         "address geometry fixed at construction",
	"prefetch.Stride.mask":         "geometry derived from the table size at construction",
	"prefetch.Stride.degree":       "prefetch-degree configuration fixed at construction",
	"prefetch.Stride.reqs":         "scratch batch, dead between OnMiss calls by the Prefetcher contract",
	"prefetch.StreamBuffers.geom":  "address geometry fixed at construction",
	"prefetch.StreamBuffers.depth": "per-buffer depth configuration fixed at construction",
	"prefetch.StreamBuffers.reqs":  "scratch batch, dead between OnMiss calls by the Prefetcher contract",
	"prefetch.Markov.reqs":         "scratch batch, dead between OnMiss calls by the Prefetcher contract",
	"prefetch.Table.keyMask":       "key width fixed at construction; bounds a decoded key",
	"prefetch.GHB.degree":          "prefetch-degree configuration fixed at construction",
	"prefetch.GHB.geom":            "address geometry fixed at construction",
	"prefetch.GHB.hist":            "scratch, dead between OnMiss calls",
	"prefetch.GHB.deltas":          "scratch, dead between OnMiss calls",
	"prefetch.GHB.reqs":            "scratch batch, dead between OnMiss calls by the Prefetcher contract",
	"bus.Bus.name":                 "reaches the image through section, the section name built from it at construction",
	"cache.Cache.name":             "reaches the image through section, the section name built from it at construction",
	"cache.MSHRFile.sorted":        "Snapshot's sort scratch, dead between Snapshot calls",
	"dbcp.DBCP.cfg":                "configuration supplied at construction; decoding requires a same-config instance",
	"dbcp.DBCP.sigMask":            "geometry derived from cfg at construction",
	"dbcp.DBCP.setMask":            "geometry derived from cfg at construction",
	"dbcp.DBCP.req":                "scratch batch, dead between OnAccess calls by the Prefetcher contract",
	"sim.missObserver.fn":          "host-side observer callback, outside the simulated state",
	"sim.missObserver.armed":       "observer state, outside the simulated state; ObserveMisses never checkpoints",
	"sim.Machine.f":                "construction wiring; it built the parked components, it is not serialisable state",
	"sim.Machine.parked":           "derived: the image's warm flag says whether the parked components are attached",
	"sim.Machine.parkedAtL2":       "construction wiring fixed by the factory",
	"sim.Machine.parkedRetire":     "construction wiring; the criticality predictor it trains is coded with the prefetcher",
	"branch.Bimodal.mask":          "geometry derived from the table size at construction; decoding keeps the constructor's value",
	"branch.GShare.mask":           "geometry derived from the table size at construction",
	"branch.GShare.histLen":        "geometry fixed at construction; bounds the decoded history",
	"branch.PAg.hmask":             "geometry derived from the history-table size at construction",
	"branch.PAg.pmask":             "geometry derived from the PHT size at construction",
	"branch.PAg.histLen":           "geometry fixed at construction, not dynamic state",
	"branch.Combining.mask":        "geometry derived from the chooser size at construction",
	"branch.Static.Taken":          "the fixed direction is configuration chosen at construction, not dynamic state",
	"dram.Memory.latency":          "access-latency configuration fixed at construction",
	"dram.Memory.bus":              "wiring; the bus serialises its own state through the memsys walk",
	"cpu.Core.mem":                 "wiring; the memory system serialises its own state through the machine walk",
	"cpu.Core.instrCtr":            "host-side observability handle, outside the simulated state",
	"cpu.Core.cycleCtr":            "host-side observability handle, outside the simulated state",
	"cpu.Core.sampler":             "host-side observability wiring; the sampler snapshots itself when registered",
	"cpu.Core.publish":             "host-side observability wiring, outside the simulated state",
	"cpu.Core.inst":                "scratch for the instruction being stepped, dead between steps",
	"workload.synth.body":          "static structure rebuilt by New from the spec and seed; bounds the decoded cursor",
	"workload.synth.depP":          "derived from the spec by New",
	"workload.synth.loadUseP":      "derived from the spec by New",
	"workload.synth.predictableP":  "derived from the spec by New",
	"workload.synth.coinP":         "derived from the spec by New",
	"deadblock.Predictor.cfg":      "configuration supplied at construction; bounds the decoded ring",
	"critical.Predictor.mask":      "geometry derived from the table size at construction",
	"core.TCP.tagMask":             "geometry derived from cfg at construction; bounds a decoded tag",
	"core.TCP.setMask":             "geometry derived from cfg at construction",
	"core.TCP.idxMask":             "geometry derived from cfg at construction",
	"core.TCP.hiBits":              "geometry derived from cfg at construction",
	"core.TCP.reqs":                "scratch batch, dead between OnMiss calls by the Prefetcher contract",
	"core.TCP.pub":                 "host-side registry mirror of st, republished after a decode",
	"core.TCP.tr":                  "host-side observability wiring, outside the simulated state",
	"memsys.MemSys.cfg":            "configuration supplied at construction; decoding requires a same-config instance",
	"memsys.MemSys.pfNoop":         "derived from pf and l2pf, which decoding requires to match",
	"memsys.MemSys.pub":            "host-side registry mirror of st, republished after a decode",
	"memsys.MemSys.tr":             "host-side observability wiring, outside the simulated state",
}

var snapshotterType = reflect.TypeOf((*checkpoint.Snapshotter)(nil)).Elem()

// perturbRows is gateRows led by five small rows: the two Snapshotters no
// scheme builds (a telemetry sampler, and the miss observer ObserveMisses
// attaches), Markov and DBCP with small tables in place of their megabyte
// ones, and Hybrid-8K, which builds TCP, the dead-block predictor and the
// prefetch bus. The small rows use fuzzRows' 4 KB L1 and 32 KB L2, so
// they settle nearly every field on images about a twentieth the size,
// and the gate rows that follow reach every type the real tables build.
func perturbRows() []gateRow {
	gates := gateRows()
	small := gates[0].cfg
	small.WarmupFidelity = FidelityFast
	small.Mem.L1D = addr.MustGeometry(4<<10, 1, 32)
	small.Mem.L2 = addr.MustGeometry(32<<10, 4, 64)
	build := func(name string, pf func(l1 addr.Geometry) prefetch.Prefetcher) Factory {
		return Factory{Name: name, Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) { return pf(l1), false }}
	}
	rows := []gateRow{
		{"sampler", NoPrefetch(), small},
		{"observer", build("observer", func(addr.Geometry) prefetch.Prefetcher {
			return &missObserver{fn: func(trace.Miss) {}}
		}), small},
		{"markov-small", build("markov-small", func(addr.Geometry) prefetch.Prefetcher {
			return prefetch.NewMarkov(6, 4, 2)
		}), small},
		{"dbcp-small", build("dbcp-small", func(l1 addr.Geometry) prefetch.Prefetcher {
			return dbcp.New(dbcp.Config{L1: l1, TableEntries: 512, Ways: 8})
		}), small},
		{"hybrid-small", Hybrid8K(), small},
	}
	return append(rows, gates...)
}

// perturbMachine builds a row's machine with telemetry attached, so the
// host-side handles are populated too; only the sampler row samples.
func perturbMachine(t *testing.T, r gateRow) *Machine {
	m := mustMachine(t, "mcf", r.f, r.cfg)
	every := int64(0)
	if r.label == "sampler" {
		every = 500
	}
	m.Observe(telemetry.NewRun(every))
	return m
}

// snapshotters returns one instance of every Snapshotter type reachable
// from m, keyed by type, each as a settable struct value whose address
// (or, for a value receiver, whose value) implements the interface.
func snapshotters(m *Machine) map[reflect.Type]reflect.Value {
	out := map[reflect.Type]reflect.Value{}
	WalkGraph(reflect.ValueOf(m), func(v reflect.Value, _ string) bool {
		t := v.Type()
		if t.Kind() != reflect.Struct || !reflect.PointerTo(t).Implements(snapshotterType) {
			return true
		}
		if _, ok := out[t]; !ok {
			if !v.CanAddr() { // held by value in an interface: test a copy
				c := reflect.New(t).Elem()
				c.Set(v)
				v = c
			}
			out[t] = v
		}
		return true
	})
	return out
}

// typeName is t's name without type arguments: every instantiation of a
// generic Snapshotter (prefetch.Table[uint32], prefetch.Table[uint64])
// is checked as the one type the source declares.
func typeName(t reflect.Type) string {
	name, _, _ := strings.Cut(t.Name(), "[")
	return name
}

// fieldKey names a struct field as "pkg.Type.field".
func fieldKey(t reflect.Type, i int) string {
	return path.Base(t.PkgPath()) + "." + typeName(t) + "." + t.Field(i).Name
}

// encode returns s's image, or nil if encoding panicked (a perturbed
// field the encoder depends on broke an invariant: it is coded).
func encode(s checkpoint.Snapshotter) (img []byte) {
	defer func() {
		if recover() != nil {
			img = nil
		}
	}()
	return checkpoint.Encode(s)
}

// TestSnapshotPerturbation proves every field of every Snapshotter the
// machine reaches is in its checkpoint image: changing the field (every
// scalar reachable from it) must change the component's encoded image in
// some row. Fields listed in unsnapped must not change it where first
// exercised, so a stale exemption fails too. A field with nothing to
// change in one row (a nil pointer, an empty table) must be exercised by
// another.
func TestSnapshotPerturbation(t *testing.T) {
	fields := map[string]bool{} // every field of every Snapshotter reached
	exercised := map[string]bool{}
	changed := map[string]bool{}
	for _, r := range perturbRows() {
		m := perturbMachine(t, r)
		m.RunTo(m.cfg.Warmup + 1_000)
		for typ, v := range snapshotters(m) {
			var pending []int
			for i := 0; i < typ.NumField(); i++ {
				key := fieldKey(typ, i)
				if ft := typ.Field(i).Type; ft.Size() > 0 {
					fields[key] = true
				}
				switch f := v.Field(i); {
				case f.Type().Size() == 0 || changed[key]:
				case exercised[key] && unsnapped[key] != "":
				case f.Kind() == reflect.Func:
					exercised[key] = true // no image can hold a func
				case (f.Kind() == reflect.Pointer || f.Kind() == reflect.Interface) && f.IsNil():
					// nothing to change in this row
				default:
					pending = append(pending, i)
				}
			}
			if len(pending) == 0 {
				continue
			}
			s := v.Addr().Interface().(checkpoint.Snapshotter)
			base := encode(s)
			for _, i := range pending {
				key := fieldKey(typ, i)
				p := &perturber{seen: map[ptrKey]bool{}, lo: v.UnsafeAddr(), hi: v.UnsafeAddr() + typ.Size()}
				p.perturb(settable(v.Field(i)))
				img := encode(s)
				p.restore()
				if p.n == 0 {
					continue
				}
				exercised[key] = true
				changed[key] = !bytes.Equal(img, base)
			}
			if !bytes.Equal(encode(s), base) {
				t.Fatalf("%s: %s image differs after restoring its fields", r.label, typ)
			}
		}
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		why := unsnapped[k]
		switch {
		case !exercised[k]:
			t.Errorf("%s never held a value to change in any row; add a row that fills it", k)
		case why != "" && changed[k]:
			t.Errorf("%s is exempt (%s) but changing it changes the image; drop the exemption", k, why)
		case why == "" && !changed[k]:
			t.Errorf("%s is not in the checkpoint image: changing it leaves the image unchanged; code it in Snapshot or exempt it with a reason", k)
		}
	}
	for k, why := range unsnapped {
		switch {
		case why == "":
			t.Errorf("exemption for %s needs a reason: say why the field need not survive a checkpoint", k)
		case !fields[k]:
			t.Errorf("exempt field %s is not a field of any Snapshotter the rows reach; drop the entry", k)
		}
	}
}

// perturber changes every scalar reachable from a value, each once, and
// undoes the changes. Pointers back into the owning component, [lo, hi),
// are aliases of its other fields (a mirror's sources) and are not
// followed.
type perturber struct {
	seen    map[ptrKey]bool
	flipped []reflect.Value // scalars flipped in place; flipping again restores them
	undo    []func()
	n       int
	lo, hi  uintptr
}

func (p *perturber) restore() {
	for _, v := range p.flipped {
		flip(v)
	}
	for i := len(p.undo) - 1; i >= 0; i-- {
		p.undo[i]()
	}
}

// flip changes a bool or numeric value by its lowest bit, so a second flip
// restores it.
func flip(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() ^ 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() ^ 1)
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(math.Float32bits(float32(v.Float())) ^ 1)))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
	}
}

// perturb changes the scalars below v, which must be settable.
func (p *perturber) perturb(v reflect.Value) {
	if v.Type().PkgPath() == "sync" || v.Type().PkgPath() == "sync/atomic" {
		return
	}
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		flip(v)
		p.flipped = append(p.flipped, v)
		p.n++
	case reflect.String:
		old := v.String()
		v.SetString(old + "~")
		p.undo = append(p.undo, func() { v.SetString(old) })
		p.n++
	case reflect.Pointer:
		if ptr := v.Pointer(); ptr != 0 && (ptr < p.lo || ptr >= p.hi) && !p.visited(ptr, v.Type()) {
			p.perturb(v.Elem())
		}
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		if e := v.Elem(); e.Kind() == reflect.Pointer {
			p.perturb(e)
		} else {
			c := reflect.New(e.Type()).Elem()
			c.Set(e)
			p.perturb(c)
			v.Set(c)
			p.undo = append(p.undo, func() { v.Set(e) })
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p.perturb(settable(v.Field(i)))
		}
	case reflect.Slice:
		if v.IsNil() || p.visited(v.Pointer(), v.Type()) {
			return
		}
		v = v.Slice(0, v.Cap()) // a scratch buffer's state is beyond its length
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			p.perturb(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			k, old := it.Key(), it.Value()
			c := reflect.New(old.Type()).Elem()
			c.Set(old)
			p.perturb(c)
			v.SetMapIndex(k, c)
			p.undo = append(p.undo, func() { v.SetMapIndex(k, old) })
		}
	}
}

func (p *perturber) visited(ptr uintptr, t reflect.Type) bool {
	k := ptrKey{ptr, t}
	if p.seen[k] {
		return true
	}
	p.seen[k] = true
	return false
}

// TestPerturbationCoversEverySnapshotter: the perturbation test reaches
// Snapshotters by walking built machines, so a type no row builds would
// go unchecked with nothing to show for it. Every type in the module
// that implements checkpoint.Snapshotter must be reached.
func TestPerturbationCoversEverySnapshotter(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load is slow")
	}
	reached := map[string]bool{}
	for _, r := range perturbRows() {
		for typ := range snapshotters(perturbMachine(t, r)) {
			reached[typ.PkgPath()+"."+typeName(typ)] = true
		}
	}
	pkgs, err := modulePackages()
	if err != nil {
		t.Fatal(err)
	}
	implementers := 0
	for _, p := range pkgs {
		// Each package sees checkpoint through its own import.
		var iface *types.Interface
		for _, imp := range p.Imports() {
			if imp.Path() == "tagprefetch/internal/checkpoint" {
				iface = imp.Scope().Lookup("Snapshotter").Type().Underlying().(*types.Interface)
			}
		}
		if iface == nil {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) ||
				!types.Implements(types.NewPointer(tn.Type()), iface) {
				continue
			}
			implementers++
			if !reached[p.Path()+"."+name] {
				t.Errorf("%s.%s implements checkpoint.Snapshotter but no perturbation row builds it", p.Path(), name)
			}
		}
	}
	if implementers < len(reached) {
		t.Fatalf("the load found %d Snapshotters, fewer than the %d the walk reached; the scan is broken", implementers, len(reached))
	}
}

// modulePackages typechecks every package of the module from source.
// Export data omits unexported types no exported declaration reaches
// (workload.synth, sim.missObserver), so each package is parsed and
// checked, with its imports resolved through the export data
// `go list -deps -export` compiles into the build cache.
func modulePackages() ([]*types.Package, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "tagprefetch/...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
		Module                  *struct{}
	}
	var list []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listed
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		exports[lp.ImportPath] = lp.Export
		list = append(list, lp)
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	var pkgs []*types.Package
	for _, lp := range list {
		if lp.Standard || lp.Module == nil || len(lp.GoFiles) == 0 {
			continue // outside the module: its types stay behind export data
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		p, err := conf.Check(lp.ImportPath, fset, files, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
