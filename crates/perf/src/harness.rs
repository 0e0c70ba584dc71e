//! The one run policy of the perf snapshots, with its determinism oracle.

/// What one run of a benchmark reports back: deterministic counters
/// describing the work just performed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Logical operations performed (events popped, messages coded, …).
    pub ops: u64,
    /// Bytes moved (wire bytes simulated, bytes encoded, …).
    pub bytes: u64,
    /// Named auxiliary counters (answer digests, message counts, …).
    pub counters: Vec<(String, u64)>,
}

impl Sample {
    /// The snapshot of bench `name`, one field per line.
    pub fn to_json(&self, name: &str) -> String {
        let mut s = format!(
            "{{\n\"bench\": {name:?},\n\"ops\": {},\n\"bytes\": {},\n\"counters\": {{\n",
            self.ops, self.bytes
        );
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            s.push_str(&format!("{k:?}: {v}{comma}\n"));
        }
        s.push_str("}\n}\n");
        s
    }
}

/// Runs `f` three times and returns its [`Sample`]. The first run is
/// discarded: it pages in code and data and lets lazily built state
/// settle. The other two must agree.
///
/// # Panics
///
/// Panics if the two compared runs return different samples. The
/// workload is fixed and seeded, so that means the benchmark (or the code
/// under test) is nondeterministic, and its snapshot would gate nothing.
pub fn run_bench<F>(name: &str, mut f: F) -> Sample
where
    F: FnMut() -> Sample,
{
    let _ = f();
    let (first, second) = (f(), f());
    assert_eq!(
        first, second,
        "bench {name}: two runs produced different counters — \
         the workload is nondeterministic"
    );
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lists_the_counters_in_order() {
        let sample = Sample {
            ops: 4,
            bytes: 32,
            counters: vec![("frames".into(), 2), ("digest".into(), 7)],
        };
        assert_eq!(
            run_bench("codec", || sample.clone()).to_json("codec"),
            "{\n\"bench\": \"codec\",\n\"ops\": 4,\n\"bytes\": 32,\n\"counters\": {\n\
             \"frames\": 2,\n\"digest\": 7\n}\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "nondeterministic")]
    fn nondeterministic_workload_is_rejected() {
        let mut calls = 0u64;
        let _ = run_bench("drift", || {
            calls += 1;
            Sample {
                ops: calls, // changes every run
                bytes: 0,
                counters: Vec::new(),
            }
        });
    }
}
