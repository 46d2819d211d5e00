// Package progs is the process-wide program table: it registers the
// repo's benchmark programs (Jacobi, ADI, pipelined MADI) with the core
// registry and then arms worker-side execution. Importing it — anywhere in
// a binary — is what makes that binary exec-capable: coordinators ship
// (name, args) pairs to their ipc workers, and the workers, running this
// same init, rebuild bit-identical programs from the same table. The same
// property makes it the serving surface: kfserve accepts (name, args)
// pairs from HTTP request bodies, so every factory validates its args
// against a declared schema (see args.go) before touching them.
//
// Every program here offers a step form (core.Program.Step) beside its
// body — Jacobi, ADI and madi as declared kf.Steps, the diagnostics by
// TryRecv — so a run of a registry program keeps no stack per rank
// wherever its transport can answer "would block"
// (TestEveryRegistryProgramSteps holds the table to it).
//
// The ordering inside init matters and is guaranteed by Go initialization:
// every RegisterProgram call runs before core.EnableWorkerExec, so a
// process re-entered as a worker daemon (KF_IPC_EXEC) has the full table
// before it starts accepting run specs.
package progs

import (
	"fmt"
	"os"

	"repro/internal/adi"
	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/kf"
	"repro/internal/machine"
)

// Schema bounds. The ranges are generous — they cover every experiment in
// the suite (the largest uses n = 128) with an order of magnitude to
// spare — but finite and small enough that the problem arrays a single
// request can demand stay tens of megabytes, not gigabytes: these args
// arrive from untrusted HTTP bodies.
const (
	maxN     = 2048    // points per problem dimension
	maxIters = 1 << 20 // iteration sweeps
)

func init() {
	registerSchema("jacobi",
		ArgSpec{Name: "n", Min: 1, Max: maxN, Integer: true},
		ArgSpec{Name: "iters", Min: 0, Max: maxIters, Integer: true})
	core.RegisterProgram("jacobi", func(args []float64) (*core.Program, error) {
		if err := ValidateArgs("jacobi", args); err != nil {
			return nil, err
		}
		return jacobiProgram(int(args[0]), int(args[1])), nil
	})

	adiSchema := []ArgSpec{
		{Name: "N", Min: 2, Max: maxN, Integer: true},
		{Name: "A", Min: 0, Max: 1e6},
		{Name: "B", Min: 0, Max: 1e6},
		{Name: "Rho", Min: 0, Max: 1e6},
		{Name: "Iters", Min: 0, Max: maxIters, Integer: true},
	}
	registerSchema("adi", adiSchema...)
	registerSchema("madi", adiSchema...)
	core.RegisterProgram("adi", adiFactory(false))
	core.RegisterProgram("madi", adiFactory(true))
	registerDiagnostics()
	core.EnableWorkerExec()
}

// The diagnostic programs exercise the execution plane itself rather than
// a numerical method: where does each rank run, what does a distributed
// stall look like, what happens when a host dies mid-run. They are
// registered here — not in a test file — because worker processes enter
// their daemon loop during this package's init, before any test-file init
// could add to the table; a program the workers cannot rebuild is a
// program the coordinator cannot ship.
func registerDiagnostics() {
	// hostpid: every rank reports the pid of the process hosting it. On a
	// single-process transport all values equal the caller's pid; on the
	// ipc execution plane each node's ranks report that node's worker.
	registerSchema("hostpid")
	core.RegisterProgram("hostpid", func(args []float64) (*core.Program, error) {
		if err := ValidateArgs("hostpid", args); err != nil {
			return nil, err
		}
		out := func() core.Output { return core.Output{Values: []float64{float64(os.Getpid())}} }
		return &core.Program{
			Name: "hostpid",
			Body: func(c *kf.Ctx) (core.Output, error) { return out(), nil },
			Step: func(c *kf.Ctx, resume bool) (core.Output, bool, error) { return out(), true, nil },
		}, nil
	})
	// stall: rank 0 waits forever on a message the last rank never sends —
	// a deliberate deadlock, for exercising stall detection. The error
	// every transport reports must be identical.
	registerSchema("stall")
	core.RegisterProgram("stall", func(args []float64) (*core.Program, error) {
		if err := ValidateArgs("stall", args); err != nil {
			return nil, err
		}
		return waiter("stall", func(c *kf.Ctx) (int, machine.Tag, bool, error) {
			return c.G.Size() - 1, 0x57, c.P.Rank() == 0 && c.G.Size() > 1, nil
		}), nil
	})
	// crash: the victim rank kills its host process mid-run while rank 0
	// blocks on it — fault injection for the worker-loss path. It refuses
	// to run outside an ipc worker (it would kill the coordinator).
	registerSchema("crash", ArgSpec{Name: "victim", Min: 0, Max: 1 << 24, Integer: true})
	core.RegisterProgram("crash", func(args []float64) (*core.Program, error) {
		if err := ValidateArgs("crash", args); err != nil {
			return nil, err
		}
		victim := int(args[0])
		return waiter(fmt.Sprintf("crash-r%d", victim), func(c *kf.Ctx) (int, machine.Tag, bool, error) {
			if os.Getenv("KF_IPC_NODE") == "" {
				return 0, 0, false, fmt.Errorf("crash diagnostic must run inside an ipc worker")
			}
			if c.P.Rank() == victim {
				os.Exit(3)
			}
			return victim, 1, c.P.Rank() == 0, nil
		}), nil
	})
}

// waiter builds a diagnostic whose ranks each receive at most one message
// and then output 1. wait says which message a rank receives (source and
// tag) and whether it receives one at all, or fails the rank. The body
// receives with Recv; the step with TryRecv, returning where the receive
// would block and asking wait again when resumed.
func waiter(name string, wait func(c *kf.Ctx) (src int, tag machine.Tag, recv bool, err error)) *core.Program {
	return &core.Program{
		Name: name,
		Body: func(c *kf.Ctx) (core.Output, error) {
			src, tag, recv, err := wait(c)
			if err != nil {
				return core.Output{}, err
			}
			if recv {
				c.P.Recv(src, tag)
			}
			return core.Output{Values: []float64{1}}, nil
		},
		Step: func(c *kf.Ctx, resume bool) (core.Output, bool, error) {
			src, tag, recv, err := wait(c)
			if err != nil {
				return core.Output{}, true, err
			}
			if recv {
				if _, ok := c.P.TryRecv(src, tag); !ok {
					return core.Output{}, false, nil
				}
			}
			return core.Output{Values: []float64{1}}, true, nil
		},
	}
}

// jacobiProgram builds the KF1 Jacobi iteration over the standard n x n
// test problem (jacobi.Problem): values are the gathered solution from
// rank 0, elapsed the iteration loop's finish time. It offers the
// iteration's step form (jacobi.KF1Step) beside its body. The name is the
// metrics key the experiments have always used.
func jacobiProgram(n, iters int) *core.Program {
	x0, f := jacobi.Problem(n)
	return &core.Program{
		Name: fmt.Sprintf("jacobi-n%d-x%d", n, iters),
		Body: func(c *kf.Ctx) (core.Output, error) {
			flat, elapsed := jacobi.KF1Ctx(c, x0, f, iters)
			return core.Output{Values: flat, Elapsed: elapsed}, nil
		},
		Step: func(c *kf.Ctx, resume bool) (core.Output, bool, error) {
			flat, elapsed, done := jacobi.KF1Step(c, resume, x0, f, iters)
			return core.Output{Values: flat, Elapsed: elapsed}, done, nil
		},
	}
}

// adiFactory returns the registry factory for the ADI iteration
// (pipelined = the paper's madi) over the standard smooth right-hand side
// (adi.TestProblem). Args are [N, A, B, Rho, Iters]; the diffusion
// coefficients and the Peaceman-Rachford parameter cross the wire as raw
// float64s, so coordinator and workers price the identical problem.
func adiFactory(pipelined bool) func(args []float64) (*core.Program, error) {
	name := "adi"
	if pipelined {
		name = "madi"
	}
	return func(args []float64) (*core.Program, error) {
		if err := ValidateArgs(name, args); err != nil {
			return nil, err
		}
		par := adi.Params{N: int(args[0]), A: args[1], B: args[2], Rho: args[3], Iters: int(args[4])}
		return adiProgram(par, pipelined), nil
	}
}

// adiProgram offers the iteration's step form (adi.ParallelStep) beside
// its body.
func adiProgram(par adi.Params, pipelined bool) *core.Program {
	name := "adi"
	if pipelined {
		name = "madi"
	}
	f := adi.TestProblem(par.N)
	return &core.Program{
		Name: fmt.Sprintf("%s-n%d-x%d", name, par.N, par.Iters),
		Body: func(c *kf.Ctx) (core.Output, error) {
			flat, _, elapsed := adi.ParallelCtx(c, par, f, pipelined)
			return core.Output{Values: flat, Elapsed: elapsed}, nil
		},
		Step: func(c *kf.Ctx, resume bool) (core.Output, bool, error) {
			flat, _, elapsed, done := adi.ParallelStep(c, resume, par, f, pipelined)
			return core.Output{Values: flat, Elapsed: elapsed}, done, nil
		},
	}
}

// Jacobi builds the registered Jacobi program (n x n points, iters
// sweeps). Registry-built, so eligible systems execute it inside their ipc
// workers.
func Jacobi(n, iters int) (*core.Program, error) {
	return core.BuildProgram("jacobi", float64(n), float64(iters))
}

// ADI builds the registered ADI program (pipelined = madi) for par.
func ADI(par adi.Params, pipelined bool) (*core.Program, error) {
	name := "adi"
	if pipelined {
		name = "madi"
	}
	return core.BuildProgram(name, float64(par.N), par.A, par.B, par.Rho, float64(par.Iters))
}
