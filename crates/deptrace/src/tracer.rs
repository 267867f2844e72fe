//! The runtime tracer.
//!
//! The paper obtains its traces from LLVM-Tracer, an instrumentation pass that logs
//! every dynamic operation. Here the equivalent is a small runtime tracer a program
//! (or a test harness) drives explicitly: it records object definitions before the
//! main loop and reads/writes inside the loop, producing the same [`Trace`] the
//! analysis consumes. No proxy application drives it; the examples and tests do.

use crate::record::{Location, OpKind, TraceRecord};
use crate::trace::Trace;

/// A runtime trace recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    trace: Trace,
    in_main_loop: bool,
    current_iteration: u64,
}

impl Tracer {
    /// Creates an empty tracer (before the main loop, iteration unset).
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Records the definition/allocation of a data object at `address` (called before
    /// the main computation loop).
    pub fn record_definition(&mut self, object: &str, address: u64, line: u32) {
        let record = if self.in_main_loop {
            TraceRecord::in_loop(
                OpKind::Define,
                Location::Memory(address),
                object,
                0,
                line,
                self.current_iteration,
            )
        } else {
            TraceRecord::before_loop(OpKind::Define, Location::Memory(address), object, 0, line)
        };
        self.trace.push(record);
    }

    /// Records the definition of a register (SSA) value.
    pub fn record_register_definition(&mut self, object: &str, register: &str, line: u32) {
        let location = Location::Register(register.to_string());
        let record = if self.in_main_loop {
            TraceRecord::in_loop(
                OpKind::Define,
                location,
                object,
                0,
                line,
                self.current_iteration,
            )
        } else {
            TraceRecord::before_loop(OpKind::Define, location, object, 0, line)
        };
        self.trace.push(record);
    }

    /// Marks the start of the main computation loop.
    pub fn begin_main_loop(&mut self) {
        self.in_main_loop = true;
        self.current_iteration = 0;
    }

    /// Marks the start of iteration `iteration` of the main loop.
    pub fn begin_iteration(&mut self, iteration: u64) {
        self.in_main_loop = true;
        self.current_iteration = iteration;
    }

    /// Records a read of `object` at `address` observing `value`.
    pub fn record_read(&mut self, object: &str, address: u64, value: u64, line: u32) {
        self.record_access(OpKind::Load, object, address, value, line);
    }

    /// Records a write of `object` at `address` with the new `value`.
    pub fn record_write(&mut self, object: &str, address: u64, value: u64, line: u32) {
        self.record_access(OpKind::Store, object, address, value, line);
    }

    /// Records a read/write observing a floating-point value (hashed to its bits).
    pub fn record_write_f64(&mut self, object: &str, address: u64, value: f64, line: u32) {
        self.record_access(OpKind::Store, object, address, value.to_bits(), line);
    }

    fn record_access(&mut self, op: OpKind, object: &str, address: u64, value: u64, line: u32) {
        let location = Location::Memory(address);
        let record = if self.in_main_loop {
            TraceRecord::in_loop(op, location, object, value, line, self.current_iteration)
        } else {
            TraceRecord::before_loop(op, location, object, value, line)
        };
        self.trace.push(record);
    }

    /// Whether the tracer is currently inside the main loop.
    pub fn is_in_main_loop(&self) -> bool {
        self.in_main_loop
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Finishes tracing and returns the collected trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// A borrowed view of the collected trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_phases_correctly() {
        let mut t = Tracer::new();
        assert!(t.is_empty());
        t.record_definition("x", 0x10, 1);
        t.record_register_definition("i", "r7", 2);
        assert!(!t.is_in_main_loop());
        t.begin_main_loop();
        assert!(t.is_in_main_loop());
        t.begin_iteration(0);
        t.record_write("x", 0x10, 1, 10);
        t.begin_iteration(1);
        t.record_read("x", 0x10, 1, 11);
        t.record_write_f64("y", 0x20, 1.5, 12);
        let trace = t.into_trace();
        assert_eq!(trace.len(), 5);
        assert!(!trace.records()[0].in_main_loop);
        assert!(trace.records()[2].in_main_loop);
        assert_eq!(trace.records()[2].iteration, Some(0));
        assert_eq!(trace.records()[3].iteration, Some(1));
        assert_eq!(trace.records()[4].value, 1.5f64.to_bits());
    }

    #[test]
    fn borrowed_trace_view() {
        let mut t = Tracer::new();
        t.record_definition("x", 0x10, 1);
        assert_eq!(t.trace().len(), 1);
        assert_eq!(t.len(), 1);
    }
}
