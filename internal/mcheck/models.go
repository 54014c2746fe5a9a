package mcheck

import (
	"fmt"
	"sort"
	"strconv"
)

// The model registry. A model name plus a parameter map fully determines
// a checkable system, which is what lets a .sched file rebuild the exact
// run that failed.

type modelEntry struct {
	defaults map[string]string
	build    func(p map[string]string) (Model, error)
	doc      string
}

var registry = map[string]modelEntry{
	"counter": {
		defaults: map[string]string{"mech": "registered", "workers": "2", "iters": "1"},
		build:    counterModel,
		doc:      "vmach lock/counter workload; mech=registered|designated|none",
	},
	"broken2store": {
		defaults: map[string]string{"workers": "2", "iters": "1"},
		build:    broken2storeModel,
		doc:      "vmach two-store RAS installed past the verifier; the checker must catch it",
	},
	"recoverable": {
		defaults: map[string]string{"workers": "2", "iters": "1", "strategy": "registration"},
		build:    recoverableModel,
		doc:      "vmach owner+epoch recoverable lock under forced kills and a 250-cycle timer",
	},
	"persist": {
		defaults: map[string]string{"workers": "1", "iters": "2", "variant": "flushed"},
		build:    persistModel,
		doc:      "NVRAM-persistent recoverable lock, crash at every persist boundary; variant=flushed|underflush",
	},
	"smp-counter": {
		defaults: map[string]string{"lock": "hybrid", "cpus": "2", "iters": "1"},
		build:    smpCounterModel,
		doc:      "smp contended counter; lock=hybrid|spinlock|llsc|ras-only",
	},
	"uni-counter": {
		defaults: map[string]string{"sync": "ras", "workers": "2", "iters": "1"},
		build:    uniCounterModel,
		doc:      "uniproc counter; sync=ras|none",
	},
	"uni-rme": {
		defaults: map[string]string{"workers": "2", "iters": "2"},
		build:    uniRMEModel,
		doc:      "uniproc core.RecoverableMutex under forced kills",
	},
	"uni-persist": {
		defaults: map[string]string{"workers": "2", "iters": "2"},
		build:    uniPersistModel,
		doc:      "uniproc core.PersistentMutex with a persisted counter, crash at every persist boundary",
	},
	"journal": {
		defaults: map[string]string{"mode": "redo", "target": "2", "torn": "0"},
		build:    journalModel,
		doc:      "vmach guest WAL transaction, crash at every persist boundary; mode=redo|undo|nofence, torn=0|1",
	},
	"memfs-journal": {
		defaults: map[string]string{"variant": "fenced", "torn": "0", "appends": "0"},
		build:    memfsJournalModel,
		doc:      "uniproc journaled memfs script; remount after any crash must be a script prefix; variant=fenced|nofence|zeroforward (the planted front-to-back mount zeroing), appends=N replaces the mixed script with create /log + N one-byte appends",
	},
	"pstruct": {
		defaults: map[string]string{"struct": "stack", "mode": "redo", "torn": "0", "script": "10 20 -1 30"},
		build:    pstructModel,
		doc:      "uniproc persistent stack/queue transactionality under crashes; struct=stack|queue, mode=undo|redo, script=space-separated ops (value = push, -1 = pop; capacity = length)",
	},
	"percpu-queue": {
		defaults: map[string]string{"drain": "safe", "producers": "2", "iters": "2", "cpus": "1"},
		build:    percpuQueueModel,
		doc:      "uniproc percpu.Queue MPSC traffic accounting; drain=safe|unsafe (unsafe is the planted non-atomic drain)",
	},
	"percpu-freelist": {
		defaults: map[string]string{"variant": "ras", "workers": "2", "iters": "1", "nodes": "2"},
		build:    percpuFreeListModel,
		doc:      "vmach guest intrusive free list; variant=ras|bare (bare double-allocates under preemption)",
	},
	"percpu-server": {
		defaults: map[string]string{"variant": "percpu", "cpus": "1", "clients": "1", "iters": "2"},
		build:    percpuServerModel,
		doc:      "smp guest request plane, exact served accounting; variant=percpu|mutex|racy (racy consumes unpublished slots)",
	},
	"qlock-queue": {
		defaults: map[string]string{"variant": "mcs", "cpus": "2", "iters": "1"},
		build:    qlockQueueModel,
		doc:      "smp queue lock FIFO+exactness under forced switches; variant=mcs|rmcs",
	},
	"qlock-rec": {
		defaults: map[string]string{"variant": "rmcs", "cpus": "2", "iters": "1"},
		build:    qlockRecModel,
		doc:      "smp queue lock under forced kills with rendezvoused overlap; variant=rmcs|mcs|rmcs-unspliced (mcs wedges, unspliced is the planted repair bug)",
	},
	"resilience": {
		defaults: map[string]string{"variant": "dedup", "kind": "volatile", "clients": "1", "iters": "2"},
		build:    resilienceModel,
		doc:      "supervised crash-restart campaign over the exactly-once server; ordinals are global persist ops across boots; variant=dedup|nodedup (nodedup is the planted replay double-apply), kind=volatile|torn",
	},
}

// Models lists the registered model names, sorted, with one-line docs.
func Models() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModelDoc returns the one-line description of a model.
func ModelDoc(name string) string { return registry[name].doc }

// ModelDefaults returns a model's default parameters as a k=v,k=v string.
func ModelDefaults(name string) string {
	return (&Schedule{Params: registry[name].defaults}).ParamString()
}

// BuildModel resolves a model name and parameter overrides into a Model.
// Unknown names and unknown parameter keys are errors: a .sched file that
// drifts from the registry must fail loudly, not silently check something
// else.
func BuildModel(name string, over map[string]string) (Model, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("mcheck: unknown model %q (have %v)", name, Models())
	}
	p := map[string]string{}
	for k, v := range e.defaults {
		p[k] = v
	}
	for k, v := range over {
		if _, ok := e.defaults[k]; !ok {
			return nil, fmt.Errorf("mcheck: model %s has no parameter %q", name, k)
		}
		p[k] = v
	}
	return e.build(p)
}

// BuildSchedule rebuilds the model a parsed schedule names.
func BuildSchedule(s *Schedule) (Model, error) {
	return BuildModel(s.Model, s.Params)
}

func paramInt(p map[string]string, key string) (int, error) {
	n, err := strconv.Atoi(p[key])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("mcheck: parameter %s=%q must be a positive integer", key, p[key])
	}
	return n, nil
}

func workerIters(p map[string]string) (workers, iters int, err error) {
	if workers, err = paramInt(p, "workers"); err != nil {
		return
	}
	iters, err = paramInt(p, "iters")
	return
}
