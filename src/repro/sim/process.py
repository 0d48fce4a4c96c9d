"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.sim.engine.Waitable`
instances or bare delays (``int``/``float`` simulated seconds, not ``bool``,
resumed with ``None`` like ``sim.timeout(delay)``).  It suspends until the
waitable triggers or the delay elapses; a success value is sent back into
the generator (``x = yield some_waitable``) and a failure is raised at the
yield point.  A bare delay is a handle-less timer whose seq is the wakeup
token; a wakeup resumes inline when the engine's ``_claim_resume`` allows,
keeping the dispatch order and seqs of the waitable path.

Processes are themselves waitables: they trigger with the generator's
return value, or fail with its uncaught exception.  A process blocked on
a waitable or a delay can be interrupted, which raises
:class:`~repro.sim.errors.Interrupt` inside it — the building block for
preemptive CPU scheduling.
"""

import types

from repro.sim.engine import Waitable
from repro.sim.errors import Interrupt, SimError


class Process(Waitable):
    """A running simulation process.  Create via :meth:`Simulator.process`."""

    __slots__ = ("name", "_gen", "_target", "_token", "_started")

    def __init__(self, sim, generator, name=None):
        if not isinstance(generator, types.GeneratorType):
            raise TypeError(
                "Process requires a generator, got {!r}".format(type(generator))
            )
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._target = None
        self._token = None  # seq of the pending bare-delay timer
        self._started = False
        sim._soon1(self._start, None)

    def __repr__(self):
        state = "done" if self.triggered else ("waiting" if self._target or self._token else "new")
        return "<Process {} [{}]>".format(self.name, state)

    @property
    def is_alive(self):
        return not self.triggered

    # ------------------------------------------------------------------

    def _start(self, _arg=None):
        if self.triggered:  # interrupted before first step
            return
        self._started = True
        self._advance()

    def _advance(self, send_value=None, throw_exc=None):
        sim = self.sim
        gen = self._gen
        while True:
            try:
                if throw_exc is not None:
                    target = gen.throw(throw_exc)
                else:
                    target = gen.send(send_value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if isinstance(target, Waitable):
                if target.triggered and sim._claim_resume():
                    if target._ok:
                        send_value, throw_exc = target._value, None
                    else:
                        throw_exc = target._value
                    continue
                self._target = target
                target.add_callback(self._on_target)
                return
            if target.__class__ is bool or not isinstance(target, (int, float)):
                problem = "a non-waitable"
            elif target < 0:
                problem = "a negative delay"
            else:
                self._token = sim._timer(target, self._wake)
                return
            gen.close()
            self.fail(SimError("process {} yielded {}: {!r}".format(self.name, problem, target)))
            return

    def _on_target(self, waitable):
        if waitable is not self._target or self.triggered:
            return  # stale wakeup after an interrupt
        self._target = None
        if waitable._ok:
            self._advance(waitable._value)
        else:
            self._advance(None, waitable._value)

    def _wake(self, token):
        """Timer fire of a bare delay: resume now, or queue the resume."""
        if token != self._token:
            return  # stale timer after an interrupt
        if self.sim._claim_resume():
            self._token = None
            self._advance()
        else:
            self.sim._soon1(self._resume, token)

    def _resume(self, token):
        if token == self._token:
            self._token = None
            self._advance()

    # ------------------------------------------------------------------

    def interrupt(self, cause=None):
        """Raise :class:`Interrupt` inside the process at its yield point.

        Safe to call at any moment before the process finishes; interrupting
        a finished process is a no-op.  The waitable or timer the process
        was blocked on keeps running but its eventual trigger is ignored.
        """
        if self.triggered:
            return
        self.sim._soon1(self._deliver_interrupt, cause)

    def _deliver_interrupt(self, cause):
        if self.triggered:
            return
        if not self._started:
            # Interrupt landed before the first step: kill quietly.
            self._gen.close()
            self.succeed(None)
            return
        target, self._target = self._target, None
        self._token = None
        if target is not None:
            target.discard_callback(self._on_target)
        self._advance(throw_exc=Interrupt(cause))
