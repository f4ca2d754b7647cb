"""Physical-process and device models.

Bounded random-walk sensor engines, latching actuators, and a PLC running a
deterministic scan cycle with a single threshold function block. Each sensor
walks on its own seeded stream, so unrelated traffic can never perturb the
process values.
"""

from collections import deque
from dataclasses import dataclass

from . import fieldbus

TMP36_MIN_C = -40.0
TMP36_MAX_C = 125.0


def tmp36_voltage(celsius: float) -> float:
    """TMP36 transfer function: 0 degC reads 0.5 V, 10 mV per degree."""
    if not TMP36_MIN_C <= celsius <= TMP36_MAX_C:
        raise ValueError(f"celsius {celsius} outside TMP36 range")
    return 0.5 + celsius / 100.0


def tmp36_celsius(volts: float) -> float:
    c = (volts - 0.5) * 100.0
    if not TMP36_MIN_C - 1e-9 <= c <= TMP36_MAX_C + 1e-9:
        raise ValueError(f"voltage {volts} outside TMP36 range")
    return c


@dataclass
class SensorModel:
    """Bounded random walk in engineering units."""

    sensor_id: str
    lo: float
    hi: float
    walk_step: float
    value: float
    running: bool = True

    def __post_init__(self):
        if not self.lo <= self.value <= self.hi:
            raise ValueError(f"{self.sensor_id}: initial value outside range")

    def tick(self, rng) -> float:
        step = rng.uniform(-self.walk_step, self.walk_step)
        self.value = min(self.hi, max(self.lo, self.value + step))
        return self.value


@dataclass
class Actuator:
    state: str = "OFF"


class Plant:
    """Owns sensors and actuators; ticked on a fixed cadence by the sim."""

    def __init__(self, sim, tick_period_us: int):
        self.sim = sim
        self.tick_period_us = tick_period_us
        self.sensors: dict[str, SensorModel] = {}
        self.actuators: dict[str, Actuator] = {}
        self.on_actuator_command = None          # hook(event tuple)

    def add_sensor(self, sensor: SensorModel) -> SensorModel:
        self.sensors[sensor.sensor_id] = sensor
        return sensor

    def add_actuator(self, actuator_id: str) -> Actuator:
        act = Actuator()
        self.actuators[actuator_id] = act
        return act

    def tick(self) -> None:
        for sid in sorted(self.sensors):
            s = self.sensors[sid]
            if s.running:
                s.tick(self.sim.rng(f"plant/{sid}"))

    def start(self) -> None:
        self.sim.every(self.tick_period_us, self.tick)

    def actuator_command(self, actuator_id: str, state: str, source: str) -> Actuator:
        act = self.actuators.get(actuator_id)
        if act is None:
            raise KeyError(f"unknown actuator {actuator_id!r}")
        if state not in ("ON", "OFF"):
            raise ValueError(f"bad actuator state {state!r}")
        act.state = state
        if self.on_actuator_command:
            self.on_actuator_command((self.sim.now_us, actuator_id, state,
                                      source))
        return act


PLC_INPUT_REGISTER = 100
PLC_SETPOINT_REGISTER = 101
PLC_OUTPUT_COIL = 0
DOS_LOAD_REF_PER_S = 500.0    # request rate at which scan jitter saturates
PLC_ID = "plc"                # names the scan-jitter random lane
MODBUS_TIMEOUT_US = 2_000_000


class Plc:
    """Threshold controller: scaled input register, writable setpoint, one coil.

    Registers store round(celsius * 10) so a 16-bit register carries one
    decimal. The scan keeps running under external MODBUS load; load only
    perturbs the scan period by a bounded fraction (<= 10%).
    """

    def __init__(self, sim, plant: Plant, input_sensor: SensorModel,
                 actuator_id: str, scan_period_us: int, setpoint_c: float,
                 scan_phase_us: int):
        self.sim = sim
        self.plant = plant
        self.input_sensor = input_sensor
        self.actuator_id = actuator_id
        self.scan_period_us = scan_period_us
        self.scan_phase_us = scan_phase_us
        self.registers = {PLC_INPUT_REGISTER: self._scale(input_sensor.value),
                          PLC_SETPOINT_REGISTER: self._scale(setpoint_c)}
        self.coils = {PLC_OUTPUT_COIL: False}
        self.input_reachable = True
        self.scan_log: list[int] = []    # the time of each scan, in us
        self._request_times = deque()    # external request arrivals (for load)
        self._rng = sim.rng(f"plc/{PLC_ID}")

    @staticmethod
    def _scale(celsius: float) -> int:
        return int(round(celsius * 10)) & 0xFFFF

    @property
    def setpoint_c(self) -> float:
        return self.registers[PLC_SETPOINT_REGISTER] / 10.0

    def _load_factor(self) -> float:
        horizon = self.sim.now_us - 1_000_000
        while self._request_times and self._request_times[0] < horizon:
            self._request_times.popleft()
        return min(1.0, len(self._request_times) / DOS_LOAD_REF_PER_S)

    def scan(self) -> tuple:
        if self.input_reachable:    # else the previous input value stays
            volts = tmp36_voltage(self.input_sensor.value)
            celsius = tmp36_celsius(volts)
            self.registers[PLC_INPUT_REGISTER] = self._scale(celsius)
        value = self.registers[PLC_INPUT_REGISTER]
        setpoint = self.registers[PLC_SETPOINT_REGISTER]
        coil_on = value > setpoint
        prev = self.coils[PLC_OUTPUT_COIL]
        self.coils[PLC_OUTPUT_COIL] = coil_on
        if coil_on != prev:
            self.plant.actuator_command(self.actuator_id,
                                        "ON" if coil_on else "OFF", "PLC")
        now = self.sim.now_us
        self.scan_log.append(now)
        return now, value, coil_on

    def start(self) -> None:
        self.sim.every(self._jittered_period, self.scan,
                       first_us=self.scan_phase_us)

    def _jittered_period(self) -> int:
        jitter = self._rng.uniform(-0.10, 0.10) * self._load_factor()
        return int(self.scan_period_us * (1.0 + jitter))

    # -- MODBUS slave table ------------------------------------------------
    def handle_modbus(self, request: fieldbus.ModbusAdu) -> fieldbus.ModbusAdu:
        self._request_times.append(self.sim.now_us)
        fn = request.function
        if fn == fieldbus.READ_HOLDING_REGISTERS:
            regs = []
            for a in range(request.address, request.address + request.count_or_value):
                if a not in self.registers:
                    return fieldbus.exception_response(
                        request, fieldbus.EXC_ILLEGAL_DATA_ADDRESS)
                regs.append(self.registers[a])
            return fieldbus.ModbusAdu(request.transaction_id, request.unit_id,
                                      fn, data=tuple(regs),
                                      count_or_value=len(regs))
        if fn == fieldbus.WRITE_SINGLE_REGISTER:
            if request.address not in self.registers:
                return fieldbus.exception_response(
                    request, fieldbus.EXC_ILLEGAL_DATA_ADDRESS)
            self.registers[request.address] = request.count_or_value
            return fieldbus.ModbusAdu(request.transaction_id, request.unit_id,
                                      fn, request.address,
                                      request.count_or_value)
        if fn == fieldbus.WRITE_SINGLE_COIL:
            if request.address != PLC_OUTPUT_COIL:
                return fieldbus.exception_response(
                    request, fieldbus.EXC_ILLEGAL_DATA_ADDRESS)
            self.coils[PLC_OUTPUT_COIL] = request.count_or_value == fieldbus.COIL_ON
            return fieldbus.ModbusAdu(request.transaction_id, request.unit_id,
                                      fn, request.address,
                                      request.count_or_value)
        return fieldbus.exception_response(request, 1)


def modbus_transact(host, slave_ip, request, on_response):
    """One MODBUS/TCP transaction over the fabric.

    Opens a connection, sends the encoded request, and calls
    on_response(adu) with the decoded reply (or None on refusal, timeout or
    a garbled reply). The request/response pair lands in the capture with a
    matching transaction id.
    """
    stream = host.open_tcp(slave_ip, fieldbus.MODBUS_PORT, "MODBUS")
    stream.write(fieldbus.encode_request(request))
    state = {"done": False}

    def finish(result):
        if not state["done"]:
            state["done"] = True
            on_response(result)

    def on_data(s, raw):
        try:
            response = fieldbus.decode_response(raw)
        except fieldbus.ModbusCodecError:
            response = None
        s.close()
        finish(response)

    def timeout_check():
        # no answer in time, whether the connection opened or not
        if not state["done"]:
            if stream.state == "established":
                stream.close()
            finish(None)

    stream.on_data = on_data
    stream.on_refused = lambda s: finish(None)
    host.sim.schedule(MODBUS_TIMEOUT_US, timeout_check)
    return stream


class ModbusSlaveService:
    """Fabric TCP service wrapping a register-table handler (the PLC)."""

    def __init__(self, handler, service_time_us: int):
        self.handler = handler            # fn(ModbusAdu) -> ModbusAdu
        self.service_time_us = service_time_us

    def on_data(self, stream, data: bytes):
        try:
            request = fieldbus.decode_request(data)
        except fieldbus.ModbusCodecError:
            return
        response = self.handler(request)
        stream.reply_after(self.service_time_us,
                           fieldbus.encode_response(response))


class MplDevice:
    """I2C adapter: renders the paired temperature/pressure walk as the
    six-byte register block starting at OUT_P_MSB (0x01)."""

    def __init__(self, temp_sensor: SensorModel, pressure_sensor: SensorModel):
        self.temp_sensor = temp_sensor
        self.pressure_sensor = pressure_sensor

    def read_block(self, register: int, n: int) -> bytes:
        block = fieldbus.mpl_encode(self.temp_sensor.value,
                                    self.pressure_sensor.value)
        return block[:n] if n <= len(block) else block + bytes(n - len(block))
