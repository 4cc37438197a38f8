// Package sched executes simulated programs against a shared cache
// hierarchy under the two sharing settings of the paper's threat model
// (Section III): simultaneous multi-threading (two hyper-threads issuing
// in parallel on one physical core) and time-sliced sharing (processes
// alternating on the core under an OS round-robin scheduler).
//
// Programs are ordinary Go functions that receive an *Env and issue memory
// accesses, busy-waits and timer reads through it. Each program runs as an
// iter.Pull coroutine, the cooperative wait() model SystemC gives its
// processes: exactly one program runs at any instant, and control moves
// only at a charged action, so simulations are fully deterministic given
// the seed. A program that panics makes Machine.Run panic on its caller
// (with a *ThreadPanic carrying the program's stack), after every
// sibling thread is reaped.
//
// Time accounting:
//
//   - SMT: each hardware thread has its own wall clock; the scheduler
//     always advances the thread whose current action completes earliest.
//     Per-action multiplicative jitter models issue-slot and port
//     contention between the hyper-threads, producing the irregular
//     interleaving the paper's channels experience. The threads hand the
//     core to one another directly: a thread that is no longer the pick
//     resumes the pick from its own coroutine, so the running threads
//     form a chain rooted at Run, and a thread whose pick is already on
//     the chain (or that may not pick anyone) yields to whichever thread
//     resumed it. Each handoff is one coroutine switch.
//
//   - Time-sliced: a single core clock and a round-robin quantum. A
//     program's long busy-waits are consumed lazily across its own slices
//     while other programs run in between, so a receiver spinning for
//     Tr = 10^8 cycles costs the simulator only Tr/quantum scheduling
//     steps, not 10^8 events.
//
// The machine normally wraps a hier.Hierarchy (Env.Access / Measure);
// programs that model their memory system elsewhere — the scheduled
// key-recovery attack drives its Target adapters directly — may build
// a machine without one and charge latencies through Env.Busy.
package sched
