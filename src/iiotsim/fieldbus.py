"""Industrial fieldbus codecs and bus semantics.

MODBUS/TCP ADUs (functions 3/5/6), an I2C transaction bus that renders the
sniffer trace grammar, the MPL3115A2 six-byte sample codec and a DS18B20
style 1-wire temperature read.
"""

import struct
from dataclasses import dataclass

MODBUS_PORT = 502
I2C_BUS_ID = "i2c-0"        # the gateway's one I2C bus
READ_HOLDING_REGISTERS = 3
WRITE_SINGLE_COIL = 5
WRITE_SINGLE_REGISTER = 6
SUPPORTED_FUNCTIONS = frozenset({READ_HOLDING_REGISTERS, WRITE_SINGLE_COIL,
                                 WRITE_SINGLE_REGISTER})
EXC_ILLEGAL_DATA_ADDRESS = 2
MAX_READ_COUNT = 125
COIL_ON = 0xFF00
COIL_OFF = 0x0000


class ModbusCodecError(Exception):
    pass


@dataclass
class ModbusAdu:
    transaction_id: int
    unit_id: int
    function: int
    address: int = 0
    count_or_value: int = 0
    data: tuple = ()            # register values on read responses
    exception_code: int = 0     # nonzero marks an exception response

    @property
    def is_exception(self) -> bool:
        return self.exception_code != 0


def _check_u16(name, value):
    if not 0 <= value <= 0xFFFF:
        raise ModbusCodecError(f"{name} {value} out of u16 range")


# MBAP header (transaction id, protocol id 0, length of unit id + PDU, unit
# id), then the PDU
_HEAD = struct.Struct(">HHHBB")           # MBAP + function code
_REQUEST = struct.Struct(">HHHBBHH")      # + address, count or value
_HEAD_BYTE = struct.Struct(">HHHBBB")     # + byte count or exception code
_ADDRESS_VALUE = struct.Struct(">HH")


class _Registers(dict):
    """Register count -> the Struct of that many big-endian registers,
    compiled at its first use; a byte count holds at most 127."""

    def __missing__(self, n):
        packer = self[n] = struct.Struct(f">{n}H")
        return packer


_REGISTERS = _Registers()


def encode_request(adu: ModbusAdu) -> bytes:
    if adu.function not in SUPPORTED_FUNCTIONS:
        raise ModbusCodecError(f"unsupported function {adu.function}")
    if adu.function == READ_HOLDING_REGISTERS and \
            not 1 <= adu.count_or_value <= MAX_READ_COUNT:
        raise ModbusCodecError(f"read count {adu.count_or_value} out of range")
    _check_u16("transaction_id", adu.transaction_id)
    _check_u16("address", adu.address)
    _check_u16("count_or_value", adu.count_or_value)
    return _REQUEST.pack(adu.transaction_id, 0, 6, adu.unit_id, adu.function,
                         adu.address, adu.count_or_value)


def decode_request(raw: bytes) -> ModbusAdu:
    if len(raw) < 8:
        raise ModbusCodecError("truncated MODBUS request")
    tid, proto, length, unit, fn = _HEAD.unpack_from(raw)
    if proto != 0:
        raise ModbusCodecError(f"bad protocol id {proto}")
    if len(raw) - 7 != length - 1:
        raise ModbusCodecError("length field does not match PDU")
    if fn not in SUPPORTED_FUNCTIONS:
        raise ModbusCodecError(f"unsupported function {fn}")
    if len(raw) != _REQUEST.size:
        raise ModbusCodecError("truncated MODBUS request PDU")
    addr, cov = _ADDRESS_VALUE.unpack_from(raw, 8)
    if fn == READ_HOLDING_REGISTERS and not 1 <= cov <= MAX_READ_COUNT:
        raise ModbusCodecError(f"read count {cov} out of range")
    return ModbusAdu(tid, unit, fn, addr, cov)


def encode_response(adu: ModbusAdu) -> bytes:
    if adu.is_exception:
        return _HEAD_BYTE.pack(adu.transaction_id, 0, 3, adu.unit_id,
                               adu.function | 0x80, adu.exception_code)
    if adu.function == READ_HOLDING_REGISTERS:
        for v in adu.data:
            _check_u16("register", v)
        n = len(adu.data)
        return _HEAD_BYTE.pack(adu.transaction_id, 0, 3 + 2 * n, adu.unit_id,
                               READ_HOLDING_REGISTERS, 2 * n) + \
            _REGISTERS[n].pack(*adu.data)
    if adu.function in (WRITE_SINGLE_COIL, WRITE_SINGLE_REGISTER):
        # a write response echoes its request
        return _REQUEST.pack(adu.transaction_id, 0, 6, adu.unit_id,
                             adu.function, adu.address, adu.count_or_value)
    raise ModbusCodecError(f"unsupported function {adu.function}")


def decode_response(raw: bytes) -> ModbusAdu:
    if len(raw) < 9:
        raise ModbusCodecError("truncated MODBUS response")
    tid, proto, length, unit, fn = _HEAD.unpack_from(raw)
    if proto != 0:
        raise ModbusCodecError(f"bad protocol id {proto}")
    if len(raw) - 7 != length - 1:
        raise ModbusCodecError("length field does not match PDU")
    if fn & 0x80:
        base = fn & 0x7F
        if base not in SUPPORTED_FUNCTIONS:
            raise ModbusCodecError(f"unsupported function {base}")
        return ModbusAdu(tid, unit, base, exception_code=raw[8])
    if fn == READ_HOLDING_REGISTERS:
        count = raw[8]
        if count % 2 or len(raw) != 9 + count:
            raise ModbusCodecError("bad read response byte count")
        return ModbusAdu(tid, unit, fn,
                         data=_REGISTERS[count // 2].unpack_from(raw, 9),
                         count_or_value=count // 2)
    if fn in (WRITE_SINGLE_COIL, WRITE_SINGLE_REGISTER):
        if len(raw) < _REQUEST.size:
            raise ModbusCodecError("truncated MODBUS response PDU")
        addr, val = _ADDRESS_VALUE.unpack_from(raw, 8)
        return ModbusAdu(tid, unit, fn, addr, val)
    raise ModbusCodecError(f"unsupported function {fn}")


def exception_response(request: ModbusAdu, code: int) -> ModbusAdu:
    return ModbusAdu(request.transaction_id, request.unit_id, request.function,
                     exception_code=code)


# ---------------------------------------------------------------------------
# I2C bus with sniffer trace rendering
# ---------------------------------------------------------------------------

class I2cNack(Exception):
    """Device absent: the address byte was not acknowledged."""

    def __init__(self, trace: str):
        super().__init__(f"I2C NACK: {trace}")
        self.trace = trace


@dataclass
class I2cTransaction:
    address7: int
    register: int
    data: tuple
    acked: bool = True

    def render(self) -> str:
        wr = (self.address7 << 1) & 0xFF
        if not self.acked:
            return f"[{wr:02X}-]"
        rd = wr | 0x01
        parts = [f"[{wr:02X}+{self.register:02X}+", f"[{rd:02X}+"]
        for i, b in enumerate(self.data):
            mark = "-" if i == len(self.data) - 1 else "+"
            parts.append(f"{b:02X}{mark}")
        parts.append("]")
        return "".join(parts)


class I2cBus:
    """Single-master bus: registered devices answer block reads; every
    transaction is rendered once and fanned out to attached sniffers."""

    def __init__(self, service_time_us: int):
        self.service_time_us = service_time_us
        self.devices: dict[int, object] = {}   # addr7 -> device with read_block()
        self.txn_log: list[tuple] = []         # (start_us, end_us, trace)
        self._sniffers: list = []

    def register(self, addr7: int, device) -> None:
        if addr7 in self.devices:
            raise ValueError(f"device already registered at 0x{addr7:02X}")
        self.devices[addr7] = device

    def attach_sniffer(self, fn) -> None:
        self._sniffers.append(fn)

    def _record(self, trace: str, ts_us: int) -> None:
        self.txn_log.append((ts_us, ts_us + self.service_time_us, trace))
        for fn in self._sniffers:
            fn(ts_us, trace)

    def read_block(self, addr7: int, register: int, n: int, ts_us: int = 0) -> tuple:
        """-> (bytes, trace_line); raises I2cNack when no device answers."""
        if n < 1:
            raise ValueError("block read needs n >= 1")
        device = self.devices.get(addr7)
        if device is None:
            txn = I2cTransaction(addr7, register, (), acked=False)
            trace = txn.render()
            self._record(trace, ts_us)
            raise I2cNack(trace)
        data = bytes(device.read_block(register, n))
        txn = I2cTransaction(addr7, register, tuple(data))
        trace = txn.render()
        self._record(trace, ts_us)
        return data, trace


# ---------------------------------------------------------------------------
# MPL3115A2 sample codec
# ---------------------------------------------------------------------------

MPL_CELSIUS_QUANTUM = 1.0 / 16.0
MPL_KPA_QUANTUM = 0.00025          # 0.25 Pa


@dataclass
class MplSample:
    celsius: float
    kilopascal: float


def mpl_decode(data) -> MplSample:
    """Decode one six-byte pressure/temperature sample.

    The arithmetic is 1-indexed over Data[1..6]: the temperature uses bytes
    4 and 5, the pressure bytes 1..3; integer work stays exact until the
    final divisions.
    """
    data = bytes(data)
    if len(data) != 6:
        raise ValueError(f"expected 6 data bytes, got {len(data)}")
    d = (None,) + tuple(data)
    temp_raw = (d[4] * 256 + (d[5] & 0xF0)) // 16
    celsius = temp_raw / 16.0
    pressure_raw = (d[1] * 65536 + d[2] * 256 + (d[3] & 0xF0)) // 16
    kilopascal = (pressure_raw / 4.0) / 1000.0
    return MplSample(celsius, kilopascal)


# what mpl_encode can encode; the decode arithmetic is unsigned, so only the
# non-negative part of the device's temperature range is representable
MPL_CELSIUS, MPL_KILOPASCAL = (0.0, 85.0), (0.0, 110.0)


def mpl_encode(celsius: float, kilopascal: float) -> bytes:
    """Inverse of mpl_decode, quantizing to 1/16 degC and 0.25 Pa."""
    for value, (lo, hi), unit in ((celsius, MPL_CELSIUS, "celsius"),
                                  (kilopascal, MPL_KILOPASCAL, "kilopascal")):
        if not lo <= value <= hi:
            raise ValueError(f"{unit} {value} outside range [{lo}, {hi}]")
    t = int(round(celsius * 16)) * 16
    p = int(round(kilopascal * 4000)) * 16
    d4, d5 = (t >> 8) & 0xFF, t & 0xF0
    d1, d2, d3 = (p >> 16) & 0xFF, (p >> 8) & 0xFF, p & 0xF0
    return bytes((d1, d2, d3, d4, d5, 0))


# ---------------------------------------------------------------------------
# 1-wire temperature read (DS18B20 quantization)
# ---------------------------------------------------------------------------

DS18B20_MIN = -55.0
DS18B20_MAX = 125.0


def ds18b20_quantize(celsius: float) -> float:
    c = min(DS18B20_MAX, max(DS18B20_MIN, celsius))
    return round(c * 16) / 16.0


class OneWireBus:
    def __init__(self):
        self.devices: dict[str, object] = {}   # id -> object with .value

    def register(self, device_id: str, device) -> None:
        self.devices[device_id] = device

    def read_temp(self, device_id: str) -> float:
        device = self.devices.get(device_id)
        if device is None:
            raise KeyError(f"no 1-wire device {device_id!r}")
        return ds18b20_quantize(device.value)
