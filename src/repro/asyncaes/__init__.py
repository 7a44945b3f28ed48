"""QDI asynchronous AES crypto-processor (Fig. 8 / Fig. 9 of the paper).

Three complementary views of the same processor:

* **physical** — :mod:`repro.asyncaes.architecture` and
  :mod:`repro.asyncaes.netlist_gen` describe the blocks, the inter-block
  dual-rail channels and the placeable structural netlist used by the
  place-and-route flows and the Table-2 criterion evaluation;
* **functional** — :mod:`repro.asyncaes.controller`,
  :mod:`repro.asyncaes.datapath` and :mod:`repro.asyncaes.keypath` execute
  AES-128 exactly as the 32-bit iterative architecture moves the data, and
  are checked against the software reference;
* **side-channel** — :mod:`repro.asyncaes.tracegen` synthesizes supply-current
  traces whose only data dependence is the capacitance mismatch of the
  channel rails, enabling end-to-end DPA experiments on both flows.
"""

from .architecture import (
    ALL_BLOCKS,
    ALL_CHANNELS,
    AesArchitecture,
    BlockSpec,
    ChannelBusSpec,
    CORE_BLOCKS,
    CORE_CHANNELS,
    KEY_BLOCKS,
    KEY_CHANNELS,
    WORD_WIDTH,
)
from .controller import ControlToken, ControllerError, RoundController, RoundStep
from .datapath import (
    CipherDataPath,
    DatapathError,
    EncryptionRun,
    block_to_words,
    words_to_block,
)
from .keypath import (
    ChannelTransfer,
    KeyPathError,
    KeySchedulePath,
    bytes_to_word,
    rot_word,
    sub_word,
    word_to_bytes,
)
from .netlist_gen import AesNetlistGenerator, build_aes_netlist
from .processor import AsyncAesProcessor, ProcessorError
from .simtrace import (
    AesSimulatorTraceGenerator,
    SimTraceConfig,
    SimulatorTraceGenerator,
    XorBankStimulus,
    xor_bank_trace_generator,
)
from .tracegen import (
    AesPowerTraceGenerator,
    TraceGenerationError,
    TraceGeneratorConfig,
    fixed_vs_random_plaintexts,
    word_digits,
)

__all__ = [
    "ALL_BLOCKS",
    "ALL_CHANNELS",
    "AesArchitecture",
    "BlockSpec",
    "ChannelBusSpec",
    "CORE_BLOCKS",
    "CORE_CHANNELS",
    "KEY_BLOCKS",
    "KEY_CHANNELS",
    "WORD_WIDTH",
    "ControlToken",
    "ControllerError",
    "RoundController",
    "RoundStep",
    "CipherDataPath",
    "DatapathError",
    "EncryptionRun",
    "block_to_words",
    "words_to_block",
    "ChannelTransfer",
    "KeyPathError",
    "KeySchedulePath",
    "bytes_to_word",
    "rot_word",
    "sub_word",
    "word_to_bytes",
    "AesNetlistGenerator",
    "build_aes_netlist",
    "AsyncAesProcessor",
    "ProcessorError",
    "AesSimulatorTraceGenerator",
    "SimTraceConfig",
    "SimulatorTraceGenerator",
    "XorBankStimulus",
    "xor_bank_trace_generator",
    "AesPowerTraceGenerator",
    "TraceGenerationError",
    "TraceGeneratorConfig",
    "fixed_vs_random_plaintexts",
    "word_digits",
]
