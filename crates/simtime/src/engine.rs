//! The event engine: FCFS resources and dependency-counted tasks.
//!
//! A *task* consumes one resource for `work / rate` seconds and may
//! depend on other tasks. A *resource* services tasks one at a time in
//! ready-time order (FCFS): a task whose dependencies complete at time
//! `t` starts at `max(t, resource.busy_until)`. The engine processes
//! tasks from a time-ordered ready heap, so execution is deterministic
//! and independent of insertion order (ties break on task id).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a declared resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct ResourceId(usize);

/// Handle to a declared task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct TaskId(usize);

struct Resource {
    /// Service rate in work units (bytes) per second.
    rate: f64,
    busy_until: f64,
}

struct Task {
    resource: ResourceId,
    work: f64,
    deps_remaining: usize,
    /// Max completion time of resolved dependencies.
    ready_at: f64,
    dependents: Vec<usize>,
    finish: Option<f64>,
}

/// The simulation under construction / execution.
#[derive(Default)]
pub(crate) struct Sim {
    resources: Vec<Resource>,
    tasks: Vec<Task>,
}

impl Sim {
    /// An empty simulation.
    pub(crate) fn new() -> Self {
        Sim::default()
    }

    /// Declare a resource with a service rate (work units per second).
    ///
    /// # Panics
    /// Panics on a non-positive rate.
    pub(crate) fn resource(&mut self, rate: f64) -> ResourceId {
        assert!(rate > 0.0, "resource rate must be positive");
        self.resources.push(Resource {
            rate,
            busy_until: 0.0,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Declare a task performing `work` units on `resource` after all
    /// `deps` complete.
    pub(crate) fn task(&mut self, resource: ResourceId, work: f64, deps: &[TaskId]) -> TaskId {
        assert!(work >= 0.0, "negative work");
        let id = self.tasks.len();
        self.tasks.push(Task {
            resource,
            work,
            deps_remaining: deps.len(),
            ready_at: 0.0,
            dependents: Vec::new(),
            finish: None,
        });
        for d in deps {
            assert!(d.0 < id, "dependencies must be declared before dependents");
            self.tasks[d.0].dependents.push(id);
        }
        TaskId(id)
    }

    /// Run to completion; returns the makespan (time the last task
    /// finishes; 0 for an empty simulation).
    ///
    /// # Panics
    /// Panics if a dependency cycle leaves tasks unexecuted (impossible
    /// through the public API, which forbids forward references).
    pub(crate) fn run(&mut self) -> f64 {
        // Min-heap of (ready_at, task id).
        let mut ready: BinaryHeap<Reverse<(ordered::F64, usize)>> = BinaryHeap::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.deps_remaining == 0 {
                ready.push(Reverse((ordered::F64(0.0), i)));
            }
        }
        let mut done = 0usize;
        let mut makespan = 0.0f64;
        while let Some(Reverse((ordered::F64(ready_at), id))) = ready.pop() {
            let (resource, work) = (self.tasks[id].resource, self.tasks[id].work);
            let res = &mut self.resources[resource.0];
            let start = ready_at.max(res.busy_until);
            let finish = start + work / res.rate;
            res.busy_until = finish;
            self.tasks[id].finish = Some(finish);
            makespan = makespan.max(finish);
            done += 1;
            let dependents = std::mem::take(&mut self.tasks[id].dependents);
            for dep in &dependents {
                let t = &mut self.tasks[*dep];
                t.deps_remaining -= 1;
                t.ready_at = t.ready_at.max(finish);
                if t.deps_remaining == 0 {
                    ready.push(Reverse((ordered::F64(t.ready_at), *dep)));
                }
            }
            self.tasks[id].dependents = dependents;
        }
        assert_eq!(done, self.tasks.len(), "dependency cycle");
        makespan
    }

    /// Completion time of a task after [`Sim::run`] (the tests' check).
    #[cfg(test)]
    fn finish_time(&self, t: TaskId) -> f64 {
        self.tasks[t.0].finish.expect("run() first")
    }
}

/// Total-ordered f64 wrapper for heap keys (no NaNs enter the engine).
mod ordered {
    #[derive(PartialEq, PartialOrd)]
    pub(crate) struct F64(pub f64);
    impl Eq for F64 {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.partial_cmp(other).expect("no NaN times")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_tasks_on_one_resource_queue_up() {
        let mut sim = Sim::new();
        let r = sim.resource(10.0);
        let a = sim.task(r, 100.0, &[]);
        let b = sim.task(r, 50.0, &[]);
        assert_eq!(sim.run(), 15.0);
        assert_eq!(sim.finish_time(a), 10.0);
        assert_eq!(sim.finish_time(b), 15.0);
    }

    #[test]
    fn parallel_resources_overlap() {
        let mut sim = Sim::new();
        let r1 = sim.resource(10.0);
        let r2 = sim.resource(10.0);
        sim.task(r1, 100.0, &[]);
        sim.task(r2, 100.0, &[]);
        assert_eq!(sim.run(), 10.0);
    }

    #[test]
    fn dependencies_serialize_across_resources() {
        let mut sim = Sim::new();
        let disk = sim.resource(100.0);
        let net = sim.resource(50.0);
        let write = sim.task(disk, 1000.0, &[]);
        let ship = sim.task(net, 1000.0, &[write]);
        assert_eq!(sim.run(), 10.0 + 20.0);
        assert_eq!(sim.finish_time(ship), 30.0);
    }

    #[test]
    fn diamond_dependency_waits_for_slowest() {
        let mut sim = Sim::new();
        let fast = sim.resource(100.0);
        let slow = sim.resource(10.0);
        let sink = sim.resource(1000.0);
        let a = sim.task(fast, 100.0, &[]); // 1 s
        let b = sim.task(slow, 100.0, &[]); // 10 s
        let join = sim.task(sink, 1000.0, &[a, b]); // +1 s after max(1, 10)
        assert_eq!(sim.run(), 11.0);
        assert_eq!(sim.finish_time(join), 11.0);
    }

    #[test]
    fn fcfs_respects_ready_order_not_declaration_order() {
        let mut sim = Sim::new();
        let gate_fast = sim.resource(100.0);
        let gate_slow = sim.resource(10.0);
        let shared = sim.resource(10.0);
        // Declared first but ready later (gated at 10 s).
        let slow_gate = sim.task(gate_slow, 100.0, &[]);
        let late = sim.task(shared, 100.0, &[slow_gate]);
        // Declared later but ready at 1 s.
        let fast_gate = sim.task(gate_fast, 100.0, &[]);
        let early = sim.task(shared, 100.0, &[fast_gate]);
        sim.run();
        assert_eq!(sim.finish_time(early), 11.0, "early task served first");
        assert_eq!(sim.finish_time(late), 21.0);
    }

    #[test]
    fn zero_work_tasks_are_instant_joins() {
        let mut sim = Sim::new();
        let r = sim.resource(1.0);
        let a = sim.task(r, 5.0, &[]);
        let join = sim.task(r, 0.0, &[a]);
        assert_eq!(sim.run(), 5.0);
        assert_eq!(sim.finish_time(join), 5.0);
    }

    #[test]
    fn empty_sim_has_zero_makespan() {
        assert_eq!(Sim::new().run(), 0.0);
    }

    #[test]
    #[should_panic(expected = "declared before dependents")]
    fn forward_references_rejected() {
        let mut sim = Sim::new();
        let r = sim.resource(1.0);
        sim.task(r, 1.0, &[TaskId(5)]);
    }
}
