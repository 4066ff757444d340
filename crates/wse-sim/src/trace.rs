//! The task timeline: one event per executed task, the simulator's
//! analogue of the CS-2's hardware cycle counters (§5.1.1 of the CereSZ
//! paper measures runtime with exactly such counters).
//!
//! The timeline is a fold of the flight recorder's task records, so it is
//! recorded exactly when the run is flight-recorded
//! (`MeshConfig::with_flight`) and read through
//! `FlightRecording::timeline`.

use std::sync::Arc;

use telemetry::chrome::ChromeTrace;

use crate::geom::PeId;
use crate::program::TaskId;
use crate::time::Time;

/// One executed task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The PE that ran it.
    pub pe: PeId,
    /// Which task.
    pub task: TaskId,
    /// Start instant.
    pub start: Time,
    /// End instant.
    pub end: Time,
    /// Dominant kernel stage of the task (most charged time), if it charged
    /// any time at all. Used as the slice name by the Perfetto exporter.
    pub label: Option<Arc<str>>,
}

/// A recorded timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A trace of already-ordered events (the recording merge sorts the
    /// per-shard timelines first).
    pub(crate) fn from_events(events: Vec<TraceEvent>) -> Self {
        Self { events }
    }

    /// All events in ascending start order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Render an ASCII Gantt chart of the first `window` of simulated time,
    /// one row per PE (row-major order), `width` characters wide. `#` marks
    /// busy time. Cell indices are exact integer tick arithmetic — there is
    /// no floating-point rounding that could push a start past the right
    /// edge (the old f64 implementation needed ulp-level clamps here).
    #[must_use]
    pub fn gantt(&self, window: Time, width: usize) -> String {
        if self.events.is_empty() || window.is_zero() || width == 0 {
            return String::new();
        }
        let mut pes: Vec<PeId> = self.events.iter().map(|e| e.pe).collect();
        pes.sort_unstable();
        pes.dedup();
        // cell(t) = floor(t * width / window) in u128 (no overflow for any
        // u64 tick count times a sane width).
        let cell = |t: Time| -> usize {
            let idx = u128::from(t.ticks()) * width as u128 / u128::from(window.ticks());
            (idx as usize).min(width - 1)
        };
        let mut out = String::new();
        for pe in pes {
            let mut row = vec![b'.'; width];
            for e in self.events.iter().filter(|e| e.pe == pe) {
                if e.start >= window {
                    continue;
                }
                let a = cell(e.start);
                // Zero-length events still mark the cell they land in.
                let b = cell(e.end.min(window)).max(a);
                for c in &mut row[a..=b] {
                    *c = b'#';
                }
            }
            out.push_str(&format!("{pe:>10} |"));
            out.push_str(std::str::from_utf8(&row).expect("ascii"));
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>10} +{}>\n{:>10}  0{:>width$}\n",
            "",
            "-".repeat(width),
            "cycles",
            window.to_string(),
            width = width
        ));
        out
    }

    /// The timeline as a Chrome-trace document: process `pid` named
    /// `process_name`, one thread track per PE, one complete slice per
    /// task. Slice names use the event's stage label when present, else the
    /// task id. Cycles map to trace microseconds 1:1, so 1 "µs" on screen
    /// is 1 simulated cycle.
    pub(crate) fn chrome_trace(&self, pid: u64, process_name: &str, cols: usize) -> ChromeTrace {
        let mut out = ChromeTrace::new();
        out.set_process_name(pid, process_name);
        let mut pes: Vec<PeId> = self.events.iter().map(|e| e.pe).collect();
        pes.sort_unstable();
        pes.dedup();
        for pe in &pes {
            out.set_thread_name(pid, pe.index(cols) as u64, format!("{pe}"));
        }
        for e in &self.events {
            let name = match &e.label {
                Some(label) => label.to_string(),
                None => format!("task-{}", e.task.0),
            };
            out.complete_slice(
                pid,
                e.pe.index(cols) as u64,
                name,
                "task",
                e.start.cycles_f64(),
                (e.end - e.start).cycles_f64(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cycles_tenths: u64) -> Time {
        Time::from_ticks(cycles_tenths * 100)
    }

    fn ev(row: usize, start: Time, end: Time) -> TraceEvent {
        TraceEvent {
            pe: PeId::new(row, 0),
            task: TaskId(0),
            start,
            end,
            label: None,
        }
    }

    #[test]
    fn gantt_marks_busy_spans() {
        let t = Trace::from_events(vec![
            ev(0, Time::from_cycles(0), Time::from_cycles(50)),
            ev(1, Time::from_cycles(50), Time::from_cycles(100)),
        ]);
        let g = t.gantt(Time::from_cycles(100), 20);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].contains("PE(0,0)"));
        assert!(lines[0].contains("##########"));
        assert!(lines[1].contains("PE(1,0)"));
        // Second PE busy in the second half.
        let bar = lines[1].split('|').nth(1).unwrap();
        assert!(bar.ends_with('#'));
        assert!(bar.starts_with('.'));
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert!(Trace::default()
            .gantt(Time::from_cycles(100), 10)
            .is_empty());
    }

    #[test]
    fn chrome_trace_has_one_track_per_pe_and_one_slice_per_task() {
        let t = Trace::from_events(vec![
            ev(0, Time::from_cycles(0), Time::from_cycles(10)),
            ev(1, Time::from_cycles(5), Time::from_cycles(20)),
            TraceEvent {
                pe: PeId::new(0, 0),
                task: TaskId(3),
                start: Time::from_cycles(12),
                end: Time::from_cycles(14),
                label: Some("lorenzo".into()),
            },
        ]);
        let doc = t.chrome_trace(1, "test mesh", 4).to_json();
        let text = doc.to_pretty();
        let parsed = telemetry::json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        let slices: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        // 1 process_name + 2 thread_name entries, one slice per task.
        assert_eq!(metas.len(), 3);
        assert_eq!(slices.len(), 3);
        let names: Vec<_> = slices
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"task-0"));
        assert!(names.contains(&"lorenzo"));
    }

    #[test]
    fn gantt_start_one_tick_before_window_lands_in_last_cell() {
        // The integer replacement of the old f64 right-edge ulp case: a
        // start one tick short of the window maps into the final cell and
        // must not index past the row.
        let start = Time::from_cycles(1) - Time::from_ticks(1);
        let t = Trace::from_events(vec![ev(0, start, at(15))]);
        let g = t.gantt(Time::from_cycles(1), 3);
        let bar = g.lines().next().unwrap().split('|').nth(1).unwrap();
        assert_eq!(bar, "..#");
    }

    #[test]
    fn gantt_start_exactly_at_window_is_excluded() {
        // A span beginning exactly on the window edge is outside `[0, window)`
        // — pinned: it draws nothing (no wrap-around, no panic).
        let t = Trace::from_events(vec![ev(0, Time::from_cycles(1), Time::from_cycles(2))]);
        let g = t.gantt(Time::from_cycles(1), 3);
        let bar = g.lines().next().unwrap().split('|').nth(1).unwrap();
        assert_eq!(bar, "...");
    }

    #[test]
    fn gantt_zero_length_event_marks_one_cell() {
        let start = Time::from_cycles(1) - Time::from_ticks(1);
        let t = Trace::from_events(vec![ev(0, start, start)]);
        let g = t.gantt(Time::from_cycles(1), 3);
        let bar = g.lines().next().unwrap().split('|').nth(1).unwrap();
        assert_eq!(bar, "..#");
    }
}
