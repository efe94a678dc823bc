//! Event channels — Xen's virtualized interrupts.
//!
//! "Exceptions and interrupts are virtualized through efficient event
//! channels" (§4.1). The model implements the port state machine
//! (allocate → bind → send → pending → deliver) with the same
//! pending/masked bitmap semantics real Xen uses; delivery *costs* are
//! charged by the caller through [`crate::abi::XenAbi::event_delivery_cost`].

use crate::domain::DomainId;
use crate::error::XenError;

/// Maximum ports per domain (Xen's 2-level ABI allows 4096 on x86-64;
/// the model keeps the same bound).
pub const MAX_PORTS: u32 = 4096;

/// State of one event channel port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortState {
    /// Allocated, awaiting an interdomain bind.
    Unbound,
    /// Connected to a remote (domain, port).
    Bound { peer: DomainId, peer_port: u32 },
}

#[derive(Debug, Clone)]
struct Port {
    state: PortState,
    pending: bool,
    masked: bool,
}

/// Per-domain event channel table. Ports are allocated sequentially and
/// never freed, so the port number *is* the `Vec` index — every lookup
/// on the send/deliver hot path is one bounds-checked array access.
#[derive(Debug, Clone, Default)]
struct DomainPorts {
    ports: Vec<Port>,
}

/// The hypervisor's event-channel subsystem.
///
/// # Example
///
/// ```
/// use xc_xen::domain::DomainId;
/// use xc_xen::events::EventChannels;
///
/// let mut ev = EventChannels::new();
/// let (front, back) = (DomainId(1), DomainId(2));
/// let fp = ev.alloc_unbound(front)?;
/// let bp = ev.alloc_unbound(back)?;
/// ev.bind(front, fp, back, bp)?;
///
/// ev.send(back, bp)?;                    // backend notifies frontend
/// assert_eq!(ev.take_pending(front), vec![fp]);
/// # Ok::<(), xc_xen::XenError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventChannels {
    /// Indexed by `DomainId.0`; domain ids are machine-assigned small
    /// integers, so the table stays dense.
    domains: Vec<DomainPorts>,
    sends: u64,
    deliveries: u64,
    drops: u64,
}

impl EventChannels {
    /// Creates an empty subsystem.
    pub fn new() -> Self {
        EventChannels::default()
    }

    /// Rewinds the subsystem to its freshly-constructed state while
    /// keeping the per-domain port `Vec`s' allocations, so a recycled
    /// table is observationally identical to [`EventChannels::new`] but
    /// re-populating it allocates nothing. The world-arena recycling in
    /// `xc-faults` leans on this.
    pub fn reset(&mut self) {
        for table in &mut self.domains {
            table.ports.clear();
        }
        self.sends = 0;
        self.deliveries = 0;
        self.drops = 0;
    }

    /// Allocates a fresh unbound port for `dom`.
    ///
    /// # Errors
    ///
    /// Returns [`XenError::NoFreePorts`] past [`MAX_PORTS`].
    pub fn alloc_unbound(&mut self, dom: DomainId) -> Result<u32, XenError> {
        let idx = dom.0 as usize;
        if idx >= self.domains.len() {
            self.domains.resize_with(idx + 1, DomainPorts::default);
        }
        let table = &mut self.domains[idx];
        if table.ports.len() as u32 >= MAX_PORTS {
            return Err(XenError::NoFreePorts);
        }
        let port = table.ports.len() as u32;
        table.ports.push(Port {
            state: PortState::Unbound,
            pending: false,
            masked: false,
        });
        Ok(port)
    }

    /// Binds two unbound ports into an interdomain channel.
    ///
    /// # Errors
    ///
    /// Returns [`XenError::BadEventPort`] if either port is missing or
    /// already bound.
    pub fn bind(
        &mut self,
        a: DomainId,
        a_port: u32,
        b: DomainId,
        b_port: u32,
    ) -> Result<(), XenError> {
        // Validate both ends before mutating either.
        for (dom, port) in [(a, a_port), (b, b_port)] {
            let p = self
                .domains
                .get(dom.0 as usize)
                .and_then(|t| t.ports.get(port as usize))
                .ok_or(XenError::BadEventPort(port))?;
            if p.state != PortState::Unbound {
                return Err(XenError::BadEventPort(port));
            }
        }
        self.port_mut(a, a_port)?.state = PortState::Bound {
            peer: b,
            peer_port: b_port,
        };
        self.port_mut(b, b_port)?.state = PortState::Bound {
            peer: a,
            peer_port: a_port,
        };
        Ok(())
    }

    fn port_mut(&mut self, dom: DomainId, port: u32) -> Result<&mut Port, XenError> {
        self.domains
            .get_mut(dom.0 as usize)
            .and_then(|t| t.ports.get_mut(port as usize))
            .ok_or(XenError::BadEventPort(port))
    }

    /// Sends an event from `dom`'s `port` to its bound peer: sets the
    /// peer's pending bit (idempotent while pending, like the real bitmap).
    ///
    /// # Errors
    ///
    /// Returns [`XenError::BadEventPort`] for unbound ports.
    pub fn send(&mut self, dom: DomainId, port: u32) -> Result<(), XenError> {
        let (peer, peer_port) = match self.port_mut(dom, port)?.state {
            PortState::Bound { peer, peer_port } => (peer, peer_port),
            PortState::Unbound => return Err(XenError::BadEventPort(port)),
        };
        let p = self.port_mut(peer, peer_port)?;
        p.pending = true;
        self.sends += 1;
        Ok(())
    }

    /// Masks or unmasks a port (masked ports accumulate pending state but
    /// are not reported by [`EventChannels::take_pending`]).
    ///
    /// # Errors
    ///
    /// Returns [`XenError::BadEventPort`] for unknown ports.
    pub fn set_masked(&mut self, dom: DomainId, port: u32, masked: bool) -> Result<(), XenError> {
        self.port_mut(dom, port)?.masked = masked;
        Ok(())
    }

    /// Whether any unmasked event is pending for `dom` (the shared
    /// variable the guest polls, §4.2).
    pub fn has_pending(&self, dom: DomainId) -> bool {
        self.domains
            .get(dom.0 as usize)
            .is_some_and(|t| t.ports.iter().any(|p| p.pending && !p.masked))
    }

    /// Takes (clears and returns) all unmasked pending ports for `dom`,
    /// in port order.
    pub fn take_pending(&mut self, dom: DomainId) -> Vec<u32> {
        let mut out = Vec::new();
        self.take_pending_into(dom, &mut out);
        out
    }

    /// [`EventChannels::take_pending`] into a caller-owned buffer: `out`
    /// is cleared, then filled with `dom`'s unmasked pending ports in
    /// port order (their bits cleared), so a delivery loop can reuse one
    /// allocation across every drain.
    pub fn take_pending_into(&mut self, dom: DomainId, out: &mut Vec<u32>) {
        out.clear();
        let Some(table) = self.domains.get_mut(dom.0 as usize) else {
            return;
        };
        for (port, p) in table.ports.iter_mut().enumerate() {
            if p.pending && !p.masked {
                p.pending = false;
                out.push(port as u32);
            }
        }
        self.deliveries += out.len() as u64;
    }

    /// Fault-injection hook: clears `dom`'s pending bit on `port` as if
    /// the notification was lost before the guest observed it (a dropped
    /// virtual interrupt). Returns whether an event was actually
    /// suppressed — `false` means the bit was already clear, so nothing
    /// was lost. Suppressed events count toward [`EventChannels::drops`],
    /// keeping the send/delivery ledger balanced:
    /// `sends == deliveries + drops + pending`.
    ///
    /// # Errors
    ///
    /// Returns [`XenError::BadEventPort`] for unknown ports.
    pub fn drop_pending(&mut self, dom: DomainId, port: u32) -> Result<bool, XenError> {
        let p = self.port_mut(dom, port)?;
        let was_pending = p.pending;
        p.pending = false;
        if was_pending {
            self.drops += 1;
        }
        Ok(was_pending)
    }

    /// Number of ports currently pending (masked or not) for `dom` — the
    /// outstanding side of the send/delivery conservation ledger.
    pub fn pending_count(&self, dom: DomainId) -> usize {
        self.domains
            .get(dom.0 as usize)
            .map_or(0, |t| t.ports.iter().filter(|p| p.pending).count())
    }

    /// Total sends performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Total events delivered.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Total pending events suppressed by the fault-injection hook
    /// ([`EventChannels::drop_pending`]).
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (EventChannels, DomainId, u32, DomainId, u32) {
        let mut ev = EventChannels::new();
        let (a, b) = (DomainId(1), DomainId(2));
        let ap = ev.alloc_unbound(a).unwrap();
        let bp = ev.alloc_unbound(b).unwrap();
        ev.bind(a, ap, b, bp).unwrap();
        (ev, a, ap, b, bp)
    }

    #[test]
    fn send_sets_peer_pending() {
        let (mut ev, a, ap, b, bp) = setup();
        ev.send(a, ap).unwrap();
        assert!(ev.has_pending(b));
        assert!(!ev.has_pending(a));
        assert_eq!(ev.take_pending(b), vec![bp]);
        assert!(!ev.has_pending(b));
    }

    #[test]
    fn pending_is_level_triggered() {
        let (mut ev, a, ap, b, _) = setup();
        // Multiple sends coalesce into one pending bit (bitmap semantics).
        ev.send(a, ap).unwrap();
        ev.send(a, ap).unwrap();
        ev.send(a, ap).unwrap();
        assert_eq!(ev.take_pending(b).len(), 1);
        assert_eq!(ev.sends(), 3);
        assert_eq!(ev.deliveries(), 1);
    }

    #[test]
    fn masking_defers_delivery() {
        let (mut ev, a, ap, b, bp) = setup();
        ev.set_masked(b, bp, true).unwrap();
        ev.send(a, ap).unwrap();
        assert!(!ev.has_pending(b));
        assert!(ev.take_pending(b).is_empty());
        ev.set_masked(b, bp, false).unwrap();
        assert!(ev.has_pending(b));
        assert_eq!(ev.take_pending(b), vec![bp]);
    }

    #[test]
    fn take_pending_into_matches_take_pending() {
        // Three channels a→b; b's middle port is masked.
        let mut ev = EventChannels::new();
        let (a, b) = (DomainId(1), DomainId(2));
        let mut b_ports = Vec::new();
        for _ in 0..3 {
            let ap = ev.alloc_unbound(a).unwrap();
            let bp = ev.alloc_unbound(b).unwrap();
            ev.bind(a, ap, b, bp).unwrap();
            ev.send(a, ap).unwrap();
            b_ports.push(bp);
        }
        ev.set_masked(b, b_ports[1], true).unwrap();
        let mut into = ev.clone();

        let taken = ev.take_pending(b);
        let mut buf = vec![99, 98, 97, 96]; // stale contents are cleared
        into.take_pending_into(b, &mut buf);
        assert_eq!(taken, vec![b_ports[0], b_ports[2]]);
        assert_eq!(buf, taken);
        assert_eq!(into.deliveries(), ev.deliveries());
        assert_eq!(into.deliveries(), 2);
        // The masked port stays pending in both.
        assert_eq!(into.pending_count(b), 1);
        assert_eq!(ev.pending_count(b), 1);

        // An unknown domain yields nothing and delivers nothing.
        assert!(ev.take_pending(DomainId(9)).is_empty());
        buf.push(7);
        into.take_pending_into(DomainId(9), &mut buf);
        assert!(buf.is_empty());
        assert_eq!(into.deliveries(), ev.deliveries());
    }

    #[test]
    fn bidirectional_channel() {
        let (mut ev, a, ap, b, bp) = setup();
        ev.send(b, bp).unwrap();
        assert!(ev.has_pending(a));
        assert_eq!(ev.take_pending(a), vec![ap]);
    }

    #[test]
    fn unbound_send_rejected() {
        let mut ev = EventChannels::new();
        let a = DomainId(1);
        let p = ev.alloc_unbound(a).unwrap();
        assert_eq!(ev.send(a, p), Err(XenError::BadEventPort(p)));
    }

    #[test]
    fn double_bind_rejected() {
        let (mut ev, a, ap, _, _) = setup();
        let c = DomainId(3);
        let cp = ev.alloc_unbound(c).unwrap();
        assert_eq!(ev.bind(a, ap, c, cp), Err(XenError::BadEventPort(ap)));
    }

    #[test]
    fn bad_port_rejected() {
        let mut ev = EventChannels::new();
        assert_eq!(ev.send(DomainId(9), 0), Err(XenError::BadEventPort(0)));
        assert_eq!(
            ev.set_masked(DomainId(9), 7, true),
            Err(XenError::BadEventPort(7))
        );
    }

    #[test]
    fn drop_pending_suppresses_and_balances() {
        let (mut ev, a, ap, b, bp) = setup();
        ev.send(a, ap).unwrap();
        assert!(ev.has_pending(b));
        assert_eq!(ev.pending_count(b), 1);
        assert_eq!(ev.drop_pending(b, bp), Ok(true));
        assert!(!ev.has_pending(b));
        assert!(ev.take_pending(b).is_empty());
        // Dropping an already-clear bit suppresses nothing.
        assert_eq!(ev.drop_pending(b, bp), Ok(false));
        assert_eq!(ev.drops(), 1);
        // Ledger: every send is delivered, dropped, or still pending.
        ev.send(a, ap).unwrap();
        assert_eq!(ev.take_pending(b), vec![bp]);
        ev.send(a, ap).unwrap();
        assert_eq!(
            ev.sends(),
            ev.deliveries() + ev.drops() + ev.pending_count(b) as u64
        );
    }

    #[test]
    fn drop_pending_rejects_unknown_port() {
        let mut ev = EventChannels::new();
        assert_eq!(
            ev.drop_pending(DomainId(9), 3),
            Err(XenError::BadEventPort(3))
        );
    }

    #[test]
    fn port_exhaustion() {
        let mut ev = EventChannels::new();
        let d = DomainId(1);
        for _ in 0..MAX_PORTS {
            ev.alloc_unbound(d).unwrap();
        }
        assert_eq!(ev.alloc_unbound(d), Err(XenError::NoFreePorts));
    }
}
