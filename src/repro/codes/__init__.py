"""RAID-6 array-code layouts.

The paper's contribution (:class:`~repro.codes.dcode.DCode`) plus every
baseline its evaluation compares against (:class:`~repro.codes.rdp.RDP`,
:class:`~repro.codes.hcode.HCode`, :class:`~repro.codes.hdp.HDPCode`,
:class:`~repro.codes.xcode.XCode`) and the related-work extras
(:class:`~repro.codes.evenodd.EvenOdd`, Reed–Solomon and Cauchy-RS codecs).

Use :func:`make_code` to build a layout by registry name.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.codes.base": ("Cell", "CodeLayout", "ParityGroup"),
    "repro.codes.dcode": ("DCode",),
    "repro.codes.evenodd": ("EvenOdd",),
    "repro.codes.generalized": ("generalize_vertical", "make_generalized"),
    "repro.codes.hcode": ("HCode",),
    "repro.codes.hdp": ("HDPCode",),
    "repro.codes.pcode": ("PCode",),
    "repro.codes.rdp": ("RDP",),
    "repro.codes.registry": (
        "EVALUATION_CODES", "available_codes", "disks_for", "make_code",
    ),
    "repro.codes.xcode": ("XCode",),
})

__all__ = [
    "Cell",
    "CodeLayout",
    "DCode",
    "EVALUATION_CODES",
    "EvenOdd",
    "HCode",
    "HDPCode",
    "PCode",
    "ParityGroup",
    "RDP",
    "XCode",
    "available_codes",
    "disks_for",
    "generalize_vertical",
    "make_code",
    "make_generalized",
]
