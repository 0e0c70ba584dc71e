//! What a TCP run leaves on the heap once it has returned: the pooled
//! helpers parked for the next run, and nothing else that grows with it.
//! Its own test binary, so the counting allocator sees one run and no
//! concurrently running test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::thread;
use std::time::Duration as StdDuration;

use ifi_sim::{Membership, MsgClass, PeerId, SimTime};
use ifi_transport::{run_tcp, Effects, NodeEvent, SansIo, WireCodec, WireError};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter never
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One lap of a token round a ring of `n`; the peer that closes the lap
/// delivers.
struct Lap {
    id: usize,
    n: usize,
}

impl SansIo for Lap {
    type Msg = u32;
    type Timer = ();
    type Output = u32;

    fn on_event(
        &mut self,
        ev: NodeEvent<u32, ()>,
        _now: SimTime,
        _env: &dyn Membership,
        fx: &mut Effects<Self>,
    ) {
        let next = PeerId::new((self.id + 1) % self.n);
        match ev {
            NodeEvent::Start if self.id == 0 => fx.send(next, 1, 4, MsgClass::DATA),
            NodeEvent::Message { msg, .. } if msg as usize == self.n => fx.deliver(msg),
            NodeEvent::Message { msg, .. } => fx.send(next, msg + 1, 4, MsgClass::DATA),
            _ => {}
        }
    }
}

struct U32Wire;

impl WireCodec<u32> for U32Wire {
    fn encode(&self, msg: &u32) -> Result<Vec<u8>, WireError> {
        Ok(msg.to_be_bytes().to_vec())
    }

    fn decode(&self, bytes: &[u8]) -> Result<u32, WireError> {
        let arr: [u8; 4] = bytes
            .try_into()
            .map_err(|_| WireError("expected 4 bytes".into()))?;
        Ok(u32::from_be_bytes(arr))
    }
}

#[test]
fn a_64_peer_tcp_run_keeps_at_most_40_kb_of_heap() {
    let n = 64;
    let before = LIVE.load(Relaxed);
    let cores = (0..n).map(|id| Lap { id, n }).collect();
    let outcome = run_tcp(cores, U32Wire, 1, StdDuration::from_secs(30)).expect("tcp setup");
    assert_eq!(outcome.outputs.len(), 1);
    drop(outcome);
    // A helper parks a moment after its join returns.
    thread::sleep(StdDuration::from_millis(200));
    let kept = LIVE.load(Relaxed).saturating_sub(before);
    println!("heap kept after a {n}-peer run: {kept} B");
    assert!(kept <= 40_000, "{kept} B kept after the run");
}
