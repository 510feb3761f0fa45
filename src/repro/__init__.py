"""repro — reproduction of *D-Code: An Efficient RAID-6 Code to Optimize
I/O Loads and Read Performance* (Yingxun Fu & Jiwu Shu, IEEE IPDPS 2015).

The package implements D-Code itself, every baseline the paper evaluates
against (RDP, EVENODD, X-Code, H-Code, HDP, Reed–Solomon, Cauchy-RS), a
block codec with chain and Gaussian erasure decoders, an operational
RAID-6 volume over simulated disks, the paper's I/O-load simulator and a
disk-array timing model, plus analysis harnesses that regenerate every
figure in the paper's evaluation.

Quick start::

    import numpy as np
    from repro import DCode, RAID6Volume

    volume = RAID6Volume(DCode(7), num_stripes=16, element_size=4096)
    payload = np.random.default_rng(0).integers(
        0, 256, (100, 4096), dtype=np.uint8)
    volume.write(0, payload)
    volume.fail_disk(2)
    volume.fail_disk(5)
    assert np.array_equal(volume.read(0, 100), payload)  # still readable
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.array": ("RAID6Volume", "SimDisk"),
    "repro.codes": (
        "Cell", "CodeLayout", "DCode", "EvenOdd", "HCode", "HDPCode",
        "ParityGroup", "RDP", "XCode", "available_codes", "disks_for",
        "make_code",
    ),
    "repro.codes.liberation": ("LiberationCode",),
    "repro.codes.linear": (
        "BitmatrixRAID6", "CauchyRSRAID6", "GeneralReedSolomon",
        "LocalReconstructionCode", "ReedSolomonRAID6",
    ),
    "repro.codes.weaver": ("WeaverCode",),
    "repro.codes.pcode": ("PCode",),
    "repro.codes.shorten": ("make_shortened", "shorten"),
    "repro.codec": ("ChainDecoder", "GaussianDecoder", "StripeCodec"),
    "repro.exceptions": (
        "DecodeError", "FaultToleranceExceeded", "InconsistentStripeError",
        "JournalReplayError", "LatentSectorError", "ReproError",
        "SimulatedCrashError", "TornWriteError", "TransientIOError",
        "UnrecoverableStripeError",
    ),
    "repro.faults": (
        "ErrorPolicy", "FaultInjector", "FaultRates", "FaultSpec",
        "HealthState", "RebuildCursor",
    ),
    "repro.journal": ("CrashRecovery", "WriteIntentLog", "recover_on_mount"),
    "repro.iosim": (
        "AccessEngine", "Operation", "ReadOp", "Workload", "WriteOp",
        "io_cost", "load_balancing_factor", "mixed_workload",
        "read_intensive_workload", "read_only_workload", "run_workload",
    ),
    "repro.perf": (
        "ArrayTimingModel", "DiskParameters", "degraded_read_experiment",
        "normal_read_experiment",
    ),
    "repro.recovery": ("conventional_plan", "hybrid_plan"),
})

__version__ = "1.0.0"

__all__ = [
    "AccessEngine",
    "ArrayTimingModel",
    "BitmatrixRAID6",
    "CauchyRSRAID6",
    "Cell",
    "ChainDecoder",
    "CodeLayout",
    "CrashRecovery",
    "DCode",
    "DecodeError",
    "DiskParameters",
    "ErrorPolicy",
    "EvenOdd",
    "FaultInjector",
    "FaultRates",
    "FaultSpec",
    "FaultToleranceExceeded",
    "GaussianDecoder",
    "GeneralReedSolomon",
    "HCode",
    "HDPCode",
    "HealthState",
    "InconsistentStripeError",
    "JournalReplayError",
    "LatentSectorError",
    "LiberationCode",
    "LocalReconstructionCode",
    "Operation",
    "RebuildCursor",
    "SimulatedCrashError",
    "TornWriteError",
    "TransientIOError",
    "UnrecoverableStripeError",
    "PCode",
    "ParityGroup",
    "RAID6Volume",
    "RDP",
    "ReadOp",
    "ReedSolomonRAID6",
    "ReproError",
    "SimDisk",
    "StripeCodec",
    "WeaverCode",
    "WriteIntentLog",
    "Workload",
    "WriteOp",
    "XCode",
    "available_codes",
    "conventional_plan",
    "degraded_read_experiment",
    "disks_for",
    "hybrid_plan",
    "io_cost",
    "load_balancing_factor",
    "make_code",
    "make_shortened",
    "mixed_workload",
    "normal_read_experiment",
    "read_intensive_workload",
    "read_only_workload",
    "recover_on_mount",
    "run_workload",
    "shorten",
    "__version__",
]
