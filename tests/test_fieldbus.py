import random
import re
import struct

import pytest

from iiotsim import fieldbus as fb

FIG_BYTES = bytes.fromhex("5C847017F000")


class TestMplCodec:
    def test_decode_temperature_is_bit_exact(self):
        sample = fb.mpl_decode(FIG_BYTES)
        assert sample.celsius == 23.9375

    def test_decode_pressure_matches_hand_evaluation(self):
        # independent evaluation of the block arithmetic, 1-indexed bytes
        d = (None,) + tuple(FIG_BYTES)
        expected = ((d[1] * 65536 + d[2] * 256 + (d[3] & 0xF0)) / 16) / 4.0 / 1000.0
        sample = fb.mpl_decode(FIG_BYTES)
        assert abs(sample.kilopascal - expected) <= 1e-9
        assert abs(sample.kilopascal - 94.73775) <= 1e-9

    def test_decode_all_zero(self):
        sample = fb.mpl_decode(bytes(6))
        assert sample.celsius == 0.0
        assert sample.kilopascal == 0.0

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            fb.mpl_decode(b"\x00" * 5)

    def test_encode_reproduces_the_reference_block(self):
        assert fb.mpl_encode(23.9375, 94.73775) == FIG_BYTES

    def test_encode_zero(self):
        assert fb.mpl_encode(0.0, 0.0) == bytes(6)

    def test_round_trip_at_range_edge(self):
        sample = fb.mpl_decode(fb.mpl_encode(85.0, 110.0))
        assert abs(sample.celsius - 85.0) <= fb.MPL_CELSIUS_QUANTUM / 2
        assert abs(sample.kilopascal - 110.0) <= fb.MPL_KPA_QUANTUM / 2

    def test_round_trip_on_quantized_grid_is_exact(self):
        rng = random.Random(20190718)
        for _ in range(300):
            c = rng.randrange(0, 85 * 16 + 1) / 16.0
            p = rng.randrange(0, 440000 + 1) * 0.00025
            sample = fb.mpl_decode(fb.mpl_encode(c, p))
            assert sample.celsius == c
            assert abs(sample.kilopascal - p) < 1e-12

    def test_round_trip_arbitrary_values_within_quantum(self):
        rng = random.Random(7)
        for _ in range(200):
            c = rng.uniform(0.0, 85.0)
            p = rng.uniform(0.0, 110.0)
            sample = fb.mpl_decode(fb.mpl_encode(c, p))
            assert abs(sample.celsius - c) <= fb.MPL_CELSIUS_QUANTUM / 2 + 1e-12
            assert abs(sample.kilopascal - p) <= fb.MPL_KPA_QUANTUM / 2 + 1e-12

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fb.mpl_encode(-1.0, 50.0)
        with pytest.raises(ValueError):
            fb.mpl_encode(86.0, 50.0)
        with pytest.raises(ValueError):
            fb.mpl_encode(20.0, 120.0)


class TestModbusCodec:
    def test_read_request_pdu_bytes(self):
        adu = fb.ModbusAdu(1, 1, fb.READ_HOLDING_REGISTERS, 0, 3)
        raw = fb.encode_request(adu)
        assert raw[7:] == bytes.fromhex("0300000003")

    def test_write_coil_on_uses_ff00(self):
        assert fb.COIL_ON == 0xFF00
        adu = fb.ModbusAdu(9, 1, fb.WRITE_SINGLE_COIL, 0, fb.COIL_ON)
        raw = fb.encode_request(adu)
        assert raw[7:] == bytes.fromhex("050000FF00")

    def test_request_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            fn = rng.choice((3, 5, 6))
            if fn == fb.READ_HOLDING_REGISTERS:
                cov = rng.randint(1, fb.MAX_READ_COUNT)
            elif fn == fb.WRITE_SINGLE_COIL:
                cov = rng.choice((fb.COIL_ON, fb.COIL_OFF))
            else:
                cov = rng.randint(0, 0xFFFF)
            adu = fb.ModbusAdu(rng.randint(0, 0xFFFF), rng.randint(0, 255),
                               fn, rng.randint(0, 0xFFFF), cov)
            assert fb.decode_request(fb.encode_request(adu)) == adu

    def test_response_round_trip_random(self):
        rng = random.Random(100)
        for _ in range(1000):
            fn = rng.choice((3, 5, 6))
            if fn == fb.READ_HOLDING_REGISTERS:
                data = tuple(rng.randint(0, 0xFFFF)
                             for _ in range(rng.randint(1, 20)))
                adu = fb.ModbusAdu(rng.randint(0, 0xFFFF), 1, fn,
                                   data=data, count_or_value=len(data))
            else:
                adu = fb.ModbusAdu(rng.randint(0, 0xFFFF), 1, fn,
                                   rng.randint(0, 0xFFFF),
                                   rng.randint(0, 0xFFFF))
            assert fb.decode_response(fb.encode_response(adu)) == adu

    def test_exception_response_sets_high_bit(self):
        req = fb.ModbusAdu(5, 1, fb.READ_HOLDING_REGISTERS, 9999, 1)
        exc = fb.exception_response(req, fb.EXC_ILLEGAL_DATA_ADDRESS)
        raw = fb.encode_response(exc)
        assert raw[7] == fb.READ_HOLDING_REGISTERS | 0x80
        back = fb.decode_response(raw)
        assert back.is_exception
        assert back.exception_code == fb.EXC_ILLEGAL_DATA_ADDRESS

    def test_decode_rejects_garbage(self):
        with pytest.raises(fb.ModbusCodecError):
            fb.decode_request(b"\x00\x01")
        with pytest.raises(fb.ModbusCodecError):
            fb.decode_request(bytes.fromhex("00010000000601" + "11" + "00000003"))
        # unknown function code
        good = bytearray(fb.encode_request(
            fb.ModbusAdu(1, 1, fb.READ_HOLDING_REGISTERS, 0, 1)))
        good[7] = 0x10
        with pytest.raises(fb.ModbusCodecError):
            fb.decode_request(bytes(good))

    def test_read_count_out_of_range(self):
        with pytest.raises(fb.ModbusCodecError):
            fb.encode_request(fb.ModbusAdu(1, 1, fb.READ_HOLDING_REGISTERS,
                                           0, 126))


class ReferenceModbus:
    """The struct.pack/unpack codec the Struct-compiled one replaced, kept
    as the reference for its bytes, values, checks and messages."""

    @staticmethod
    def check_u16(name, value):
        if not 0 <= value <= 0xFFFF:
            raise fb.ModbusCodecError(f"{name} {value} out of u16 range")

    @classmethod
    def encode_request(cls, adu):
        if adu.function not in fb.SUPPORTED_FUNCTIONS:
            raise fb.ModbusCodecError(f"unsupported function {adu.function}")
        if adu.function == fb.READ_HOLDING_REGISTERS and \
                not 1 <= adu.count_or_value <= fb.MAX_READ_COUNT:
            raise fb.ModbusCodecError(
                f"read count {adu.count_or_value} out of range")
        cls.check_u16("transaction_id", adu.transaction_id)
        cls.check_u16("address", adu.address)
        cls.check_u16("count_or_value", adu.count_or_value)
        pdu = struct.pack(">BHH", adu.function, adu.address,
                          adu.count_or_value)
        return struct.pack(">HHHB", adu.transaction_id, 0, len(pdu) + 1,
                           adu.unit_id) + pdu

    @classmethod
    def encode_response(cls, adu):
        if adu.is_exception:
            pdu = struct.pack(">BB", adu.function | 0x80, adu.exception_code)
        elif adu.function == fb.READ_HOLDING_REGISTERS:
            for v in adu.data:
                cls.check_u16("register", v)
            pdu = struct.pack(">BB", adu.function, 2 * len(adu.data))
            pdu += b"".join(struct.pack(">H", v) for v in adu.data)
        elif adu.function in (fb.WRITE_SINGLE_COIL, fb.WRITE_SINGLE_REGISTER):
            pdu = struct.pack(">BHH", adu.function, adu.address,
                              adu.count_or_value)
        else:
            raise fb.ModbusCodecError(f"unsupported function {adu.function}")
        return struct.pack(">HHHB", adu.transaction_id, 0, len(pdu) + 1,
                           adu.unit_id) + pdu

    @staticmethod
    def decode_request(raw):
        if len(raw) < 8:
            raise fb.ModbusCodecError("truncated MODBUS request")
        tid, proto, length, unit = struct.unpack(">HHHB", raw[:7])
        if proto != 0:
            raise fb.ModbusCodecError(f"bad protocol id {proto}")
        pdu = raw[7:]
        if len(pdu) != length - 1:
            raise fb.ModbusCodecError("length field does not match PDU")
        fn = pdu[0]
        if fn not in fb.SUPPORTED_FUNCTIONS:
            raise fb.ModbusCodecError(f"unsupported function {fn}")
        if len(pdu) != 5:
            raise fb.ModbusCodecError("truncated MODBUS request PDU")
        addr, cov = struct.unpack(">HH", pdu[1:5])
        if fn == fb.READ_HOLDING_REGISTERS and \
                not 1 <= cov <= fb.MAX_READ_COUNT:
            raise fb.ModbusCodecError(f"read count {cov} out of range")
        return fb.ModbusAdu(tid, unit, fn, addr, cov)

    @staticmethod
    def decode_response(raw):
        if len(raw) < 9:
            raise fb.ModbusCodecError("truncated MODBUS response")
        tid, proto, length, unit = struct.unpack(">HHHB", raw[:7])
        if proto != 0:
            raise fb.ModbusCodecError(f"bad protocol id {proto}")
        pdu = raw[7:]
        if len(pdu) != length - 1:
            raise fb.ModbusCodecError("length field does not match PDU")
        fn = pdu[0]
        if fn & 0x80:
            base = fn & 0x7F
            if base not in fb.SUPPORTED_FUNCTIONS:
                raise fb.ModbusCodecError(f"unsupported function {base}")
            return fb.ModbusAdu(tid, unit, base, exception_code=pdu[1])
        if fn == fb.READ_HOLDING_REGISTERS:
            count = pdu[1]
            if count % 2 or len(pdu) != 2 + count:
                raise fb.ModbusCodecError("bad read response byte count")
            vals = struct.unpack(f">{count // 2}H", pdu[2:])
            return fb.ModbusAdu(tid, unit, fn, data=tuple(vals),
                                count_or_value=count // 2)
        if fn in (fb.WRITE_SINGLE_COIL, fb.WRITE_SINGLE_REGISTER):
            if len(pdu) < 5:
                raise fb.ModbusCodecError("truncated MODBUS response PDU")
            addr, val = struct.unpack(">HH", pdu[1:5])
            return fb.ModbusAdu(tid, unit, fn, addr, val)
        raise fb.ModbusCodecError(f"unsupported function {fn}")


def outcome(fn, arg):
    """fn(arg), or the type and text of the ModbusCodecError it raised, or
    struct.error for a field that struct refused to pack or unpack (its text
    names whichever bad field was packed first)."""
    try:
        return fn(arg)
    except fb.ModbusCodecError as e:
        return fb.ModbusCodecError, str(e)
    except struct.error:
        return struct.error, ""


class TestModbusCodecAgainstReference:
    U16_EDGES = (-1, 0, 1, 0xFFFF, 0x10000)

    def adus(self, rng, n):
        for _ in range(n):
            fn = rng.choice((3, 5, 6, 3, 5, 6, 0, 4, 16))
            tid, address, cov = (rng.choice(self.U16_EDGES) if rng.random()
                                 < 0.2 else rng.randint(0, 0xFFFF)
                                 for _ in range(3))
            if fn == 3 and rng.random() < 0.7:
                cov = rng.choice((0, 1, 2, fb.MAX_READ_COUNT,
                                  fb.MAX_READ_COUNT + 1))
            unit = rng.choice((0, 1, 255, 256)) if rng.random() < 0.1 else 1
            data = tuple(rng.choice(self.U16_EDGES) if rng.random() < 0.05
                         else rng.randint(0, 0xFFFF)
                         for _ in range(rng.choice((0, 1, 2, 3, 125, 127,
                                                    128))))
            exc = rng.choice((0, 0, 0, 1, 2, 256))
            yield fb.ModbusAdu(tid, unit, fn, address, cov, data, exc)

    def test_encoders_give_the_reference_bytes_and_errors(self):
        errors = set()
        for adu in self.adus(random.Random(18), 4000):
            for name in ("encode_request", "encode_response"):
                got = outcome(getattr(fb, name), adu)
                assert got == outcome(getattr(ReferenceModbus, name), adu)
                if isinstance(got, tuple):
                    errors.add(got[1].split(" ")[0])
        # every check fired somewhere in the sweep
        assert {"unsupported", "read", "transaction_id", "address",
                "count_or_value", "register", ""} <= errors

    def test_decoders_give_the_reference_values_and_errors(self):
        rng = random.Random(19)
        raws = []
        for adu in self.adus(rng, 2000):
            for encode in (ReferenceModbus.encode_request,
                           ReferenceModbus.encode_response):
                raw = outcome(encode, adu)
                if isinstance(raw, bytes):
                    raws += [raw, raw[:rng.randint(0, len(raw))],
                             raw + bytes([rng.randint(0, 255)])]
                    edited = bytearray(raw)
                    edited[rng.randrange(len(raw))] = rng.randint(0, 255)
                    raws.append(bytes(edited))
        raws += [bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 14)))
                 for _ in range(2000)]
        for raw in raws:
            for name in ("decode_request", "decode_response"):
                assert outcome(getattr(fb, name), raw) == outcome(
                    getattr(ReferenceModbus, name), raw), (name, raw.hex())

    @pytest.mark.parametrize("adu,message", [
        (fb.ModbusAdu(0x10000, 1, 3, 0, 1),
         "transaction_id 65536 out of u16 range"),
        (fb.ModbusAdu(1, 1, 6, -1, 1), "address -1 out of u16 range"),
        (fb.ModbusAdu(1, 1, 6, 0, 0x10000),
         "count_or_value 65536 out of u16 range"),
        (fb.ModbusAdu(1, 1, 3, 0, 0), "read count 0 out of range"),
        (fb.ModbusAdu(1, 1, 16, 0, 1), "unsupported function 16"),
    ])
    def test_request_messages(self, adu, message):
        with pytest.raises(fb.ModbusCodecError, match=f"^{message}$"):
            fb.encode_request(adu)

    @pytest.mark.parametrize("adu,message", [
        (fb.ModbusAdu(1, 1, 3, data=(1, 0x10000)),
         "register 65536 out of u16 range"),
        (fb.ModbusAdu(1, 1, 3, data=(-1,)), "register -1 out of u16 range"),
        (fb.ModbusAdu(1, 1, 4, 0, 1), "unsupported function 4"),
    ])
    def test_response_messages(self, adu, message):
        with pytest.raises(fb.ModbusCodecError, match=f"^{message}$"):
            fb.encode_response(adu)

    @pytest.mark.parametrize("raw", ["000100000003010600",
                                     "0001000000040105ff00",
                                     "000100000005010600010a"])
    def test_write_response_with_a_short_pdu(self, raw):
        # a write response's PDU is function, address and value: 5 bytes
        with pytest.raises(fb.ModbusCodecError,
                           match="^truncated MODBUS response PDU$"):
            fb.decode_response(bytes.fromhex(raw))


TRACE_RE = re.compile(r"^\[([0-9A-F]{2}[+\-])+(\[([0-9A-F]{2}[+\-])+)?\]$")


class TestI2cBus:
    def make_bus(self, data=FIG_BYTES):
        bus = fb.I2cBus(service_time_us=1340)

        class Device:
            def read_block(self, register, n):
                return data[:n]

        bus.register(0x60, Device())
        return bus

    def test_reference_trace_line(self):
        bus = self.make_bus()
        data, trace = bus.read_block(0x60, 0x01, 6)
        assert data == FIG_BYTES
        assert trace == "[C0+01+[C1+5C+84+70+17+F0+00-]"

    def test_nack_trace_for_empty_address(self):
        bus = self.make_bus()
        with pytest.raises(fb.I2cNack) as err:
            bus.read_block(0x44, 0x00, 6)
        assert err.value.trace == "[88-]"
        assert TRACE_RE.match(err.value.trace)

    def test_single_byte_read(self):
        bus = self.make_bus()
        data, trace = bus.read_block(0x60, 0x01, 1)
        assert len(data) == 1
        assert trace == "[C0+01+[C1+5C-]"

    def test_every_trace_matches_grammar_and_reparses(self):
        rng = random.Random(3)
        for _ in range(200):
            addr = rng.randint(0x08, 0x77)
            reg = rng.randint(0, 0xFF)
            data = tuple(rng.randint(0, 255) for _ in range(rng.randint(1, 8)))
            txn = fb.I2cTransaction(addr, reg, data)
            line = txn.render()
            assert TRACE_RE.match(line), line
            assert fb.parse_trace(line) == txn

    def test_sniffer_sees_the_same_line(self):
        bus = self.make_bus()
        seen = []
        bus.attach_sniffer(lambda ts, line: seen.append(line))
        _, trace = bus.read_block(0x60, 0x01, 6, ts_us=1234)
        assert seen == [trace]
        assert [line for _, _, line in bus.txn_log] == [trace]

    def test_n_must_be_positive(self):
        bus = self.make_bus()
        with pytest.raises(ValueError):
            bus.read_block(0x60, 0x01, 0)


class TestOneWire:
    def test_quantizes_to_sixteenth(self):
        assert fb.ds18b20_quantize(20.38) == 20.375

    def test_range_floor(self):
        assert fb.ds18b20_quantize(-80.0) == -55.0
        assert fb.ds18b20_quantize(200.0) == 125.0

    def test_bus_read_and_missing_device(self):
        bus = fb.OneWireBus()

        class Probe:
            value = 20.38

        bus.register("t1", Probe())
        assert bus.read_temp("t1") == 20.375
        # no plant tick in between: identical reads
        assert bus.read_temp("t1") == bus.read_temp("t1")
        with pytest.raises(KeyError):
            bus.read_temp("nope")
