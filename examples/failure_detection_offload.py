#!/usr/bin/env python3
"""Failure detection (Blink-inspired): offload the CMS to the controller.

Reproduces Table 3's third row (4 -> 2 stages) and then goes one step
beyond the paper: it actually *runs* the offloaded segment on a software
controller and verifies, packet by packet, that switch + controller give
every packet the verdict the original all-in-data-plane program gave it.

Run:
    python examples/failure_detection_offload.py
"""

from repro import P2GO
from repro.controller import OffloadController, check_result
from repro.core.report import stage_table
from repro.programs import failure_detection as fd


def main() -> None:
    program = fd.build_program()
    config = fd.runtime_config()
    trace = fd.make_trace(4_000)

    # ------------------------------------------------------------------
    print("Optimizing the failure-detection pipeline...")
    result = P2GO(program, config, trace, fd.TARGET).run()
    print()
    print(stage_table(result))
    print(f"\noffloaded tables: {', '.join(result.offloaded_tables)}")

    # ------------------------------------------------------------------
    print()
    print("Running the offloaded segment on the software controller...")
    report = check_result(result, config, trace)
    print(f"  packets replayed:        {report.total}")
    print(f"  redirected to controller: {report.redirected} "
          f"({report.redirected / report.total:.2%})")
    print(f"  verdict mismatches:       {len(report.mismatches)}")
    assert report.equivalent, "controller diverged from the data plane!"

    # ------------------------------------------------------------------
    print()
    print("Controller-side statistics for the redirected traffic:")
    controller = OffloadController(
        program, result.offloaded.segment, config,
        notification_reason=fd.ALARM_REASON,
    )
    redirected = 0
    from repro.sim import BehavioralSwitch

    optimized_switch = BehavioralSwitch(
        result.optimized_program, result.final_config
    )
    for entry in trace:
        data, port = entry if isinstance(entry, tuple) else (entry, 0)
        if optimized_switch.process(data, port).to_controller:
            controller.handle_packet(data, port)
            redirected += 1
    stats = controller.stats
    print(f"  packets processed: {stats.packets_processed}")
    print(f"  failure alarms:    {stats.notifications}")
    print()
    print("The data plane kept only the retransmission detector (1 stage)"
          " and the redirect table — 2 stages instead of 4, at "
          f"{redirected / len(trace):.1%} controller load.")


if __name__ == "__main__":
    main()
