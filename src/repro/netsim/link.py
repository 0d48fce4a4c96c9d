"""Point-to-point unidirectional link with serialization, latency, and loss."""

from repro.sim.resources import Store


class Link:
    """One direction of a wire.

    Packets are serialized at ``bandwidth_bps`` (one at a time,
    store-and-forward) then arrive at ``deliver`` after the propagation
    ``latency``.  ``loss_rate`` drops packets after serialization, as a
    real lossy medium would.

    Two admission styles:

    * :meth:`transmit` — fire-and-forget, packet waits in the link queue
      (used by switch output ports, where queueing is the model).
    * :meth:`transmit_blocking` — returns a waitable that triggers when
      serialization finishes, so the caller (a NIC TX ring pump) can apply
      backpressure instead of queueing unboundedly.
    """

    def __init__(self, sim, bandwidth_bps, latency, deliver, loss_rate=0.0, rng=None, name="link"):
        if bandwidth_bps <= 0:
            raise ValueError("link bandwidth must be positive")
        if loss_rate and rng is None:
            raise ValueError("loss_rate requires an rng stream")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency = latency
        self.loss_rate = loss_rate
        self.name = name
        self._deliver = deliver
        self._rng = rng
        self._queue = Store(sim)
        self.admin_up = True
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        self.admin_dropped = 0
        self.busy_time = 0.0
        sim.process(self._pump(), name="{}-pump".format(name))

    def set_admin(self, up):
        """Administratively raise/lower the link.

        Distinct from ``loss_rate``: while down, every packet is dropped
        deterministically after serialization (the wire still clocks bits
        out; they just go nowhere), counted in ``admin_dropped``.
        """
        self.admin_up = bool(up)

    def transmit(self, packet):
        """Queue a packet for transmission (never blocks the caller)."""
        self._queue.put((packet, None))

    def transmit_blocking(self, packet):
        """Queue a packet; the returned waitable fires when it leaves the wire."""
        done = self.sim.waitable()
        self._queue.put((packet, done))
        return done

    @property
    def queue_depth(self):
        return len(self._queue)

    def serialization_delay(self, packet):
        return packet.wire_size * 8.0 / self.bandwidth_bps

    def utilization(self, now):
        return self.busy_time / now if now > 0 else 0.0

    def _pump(self):
        while True:
            packet, done = yield self._queue.get()
            delay = self.serialization_delay(packet)
            yield delay
            self.busy_time += delay
            self.tx_packets += 1
            self.tx_bytes += packet.wire_size
            if done is not None:
                done.succeed(packet)
            if not self.admin_up:
                self.admin_dropped += 1
                continue
            if self.loss_rate and self._rng.random() < self.loss_rate:
                self.dropped += 1
                continue
            self.sim.schedule(self.latency, self._deliver, packet)
