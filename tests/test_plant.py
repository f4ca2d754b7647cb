import pytest

from iiotsim import fieldbus as fb
from iiotsim.netsim import LinkProfile, Simulation
from iiotsim.plant import (PLC_INPUT_REGISTER, PLC_SETPOINT_REGISTER,
                           ModbusSlaveService, Plant, Plc, SensorModel,
                           modbus_transact, tmp36_celsius, tmp36_voltage)

from conftest import SilentSlave, unbind_tcp


def make_plant(seed=5, tick_us=1_000_000):
    sim = Simulation(seed=seed)
    sim.add_segment("lan", LinkProfile())
    plant = Plant(sim, tick_us)
    return sim, plant


class TestSensorWalk:
    def test_step_is_bounded(self):
        # prior value from a recorded humidity row; the next step stays
        # within +-walk_step of it (intersected with the range)
        sim, plant = make_plant()
        s = plant.add_sensor(SensorModel("sim-humidity", "sim-humidity",
                                         10.0, 90.0, 2.0, 28.08))
        plant.tick()
        assert 26.08 <= s.value <= 30.08
        assert 10.0 <= s.value <= 90.0

    def test_clamped_at_range_max(self):
        sim, plant = make_plant()
        s = plant.add_sensor(SensorModel("s", "sim-temp", 0.0, 30.0, 5.0, 30.0))
        for _ in range(50):
            plant.tick()
            assert s.value <= 30.0

    def test_rerun_identical_series(self):
        def series():
            sim, plant = make_plant(seed=77)
            s = plant.add_sensor(SensorModel("s", "sim-temp", 0.0, 50.0,
                                             0.7, 25.0))
            out = []
            for _ in range(100):
                plant.tick()
                out.append(s.value)
            return out
        assert series() == series()

    def test_stopped_sensor_holds_value(self):
        sim, plant = make_plant()
        s = plant.add_sensor(SensorModel("s", "sim-temp", 0.0, 50.0, 1.0, 25.0))
        s.running = False
        plant.tick()
        assert s.value == 25.0

    def test_initial_value_must_be_in_range(self):
        with pytest.raises(ValueError):
            SensorModel("s", "sim-temp", 0.0, 10.0, 1.0, 11.0)


class TestTmp36:
    def test_reference_points(self):
        assert tmp36_voltage(25.0) == 0.75
        assert tmp36_voltage(0.0) == 0.5

    def test_round_trip_grid(self):
        for c10 in range(-400, 1251, 7):
            c = c10 / 10.0
            assert abs(tmp36_celsius(tmp36_voltage(c)) - c) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tmp36_voltage(-41.0)
        with pytest.raises(ValueError):
            tmp36_voltage(126.0)


def make_plc(seed=6, setpoint=30.0, init=25.0):
    sim, plant = make_plant(seed=seed)
    sensor = plant.add_sensor(SensorModel("plc-temp", "tmp36", -40.0, 125.0,
                                          0.0, init))
    plant.add_actuator("led1")
    plc = Plc(sim, plant, sensor, "led1", scan_period_us=100_000,
              setpoint_c=setpoint, scan_phase_us=13_000)
    return sim, plant, sensor, plc


class TestPlcScan:
    def test_threshold_above_turns_coil_on(self):
        sim, plant, sensor, plc = make_plc(setpoint=30.0, init=31.0)
        _, value, coil = plc.scan()
        assert value == 310
        assert coil is True

    def test_threshold_boundary_is_strict(self):
        sim, plant, sensor, plc = make_plc(setpoint=30.0, init=30.0)
        _, value, coil = plc.scan()
        assert value == 300
        assert coil is False

    def test_register_scaling_one_decimal(self):
        sim, plant, sensor, plc = make_plc(init=16.407)
        plc.scan()
        assert plc.registers[PLC_INPUT_REGISTER] == 164

    def test_unreachable_input_keeps_value_and_flags_fault(self):
        sim, plant, sensor, plc = make_plc(init=25.0)
        plc.scan()
        before = plc.registers[PLC_INPUT_REGISTER]
        plc.input_reachable = False
        sensor.value = 40.0
        plc.scan()
        assert plc.fault
        assert plc.registers[PLC_INPUT_REGISTER] == before

    def test_closed_loop_single_transition_on_crossing(self):
        # monotonically rising input crossing the setpoint flips the coil
        # exactly once, within one scan period of the crossing
        sim, plant, sensor, plc = make_plc(setpoint=30.0, init=25.0)
        plc.start()
        def ramp():
            sensor.value = min(40.0, sensor.value + 0.25)
            sim.schedule(100_000, ramp)
        sim.schedule(100_000, ramp)
        sim.run_until(10_000_000)
        transitions = [(ts, st) for ts, a, st, src in plant.actuator_events]
        assert [st for _, st in transitions] == ["ON"]
        crossing_scan = next(ts for ts, v, coil in plc.scan_log if coil)
        prior_scans = [ts for ts, v, coil in plc.scan_log if ts < crossing_scan]
        assert crossing_scan - prior_scans[-1] <= plc.scan_period_us * 1.1

    def test_scan_log_deterministic(self):
        def run():
            sim, plant, sensor, plc = make_plc(seed=8)
            sensor.walk_step = 0.5
            plant.start()
            plc.start()
            sim.run_until(5_000_000)
            return plc.scan_log
        assert run() == run()


class TestModbusTable:
    def test_read_write_round_trip(self):
        sim, plant, sensor, plc = make_plc(init=16.4)
        plc.scan()
        read = fb.ModbusAdu(1, 1, fb.READ_HOLDING_REGISTERS,
                            PLC_INPUT_REGISTER, 1)
        resp = plc.handle_modbus(read)
        assert resp.data == (164,)
        assert resp.transaction_id == 1
        write = fb.ModbusAdu(2, 1, fb.WRITE_SINGLE_REGISTER,
                             PLC_SETPOINT_REGISTER, 250)
        echo = plc.handle_modbus(write)
        assert (echo.address, echo.count_or_value) == (PLC_SETPOINT_REGISTER, 250)
        assert plc.setpoint_c == 25.0

    def test_coil_write_and_read_back(self):
        sim, plant, sensor, plc = make_plc()
        on = fb.ModbusAdu(3, 1, fb.WRITE_SINGLE_COIL, 0, fb.COIL_ON)
        plc.handle_modbus(on)
        assert plc.coils[0] is True

    def test_illegal_address_exception(self):
        sim, plant, sensor, plc = make_plc()
        bad = fb.ModbusAdu(4, 1, fb.READ_HOLDING_REGISTERS, 9999, 1)
        resp = plc.handle_modbus(bad)
        assert resp.is_exception
        assert resp.exception_code == fb.EXC_ILLEGAL_DATA_ADDRESS


class TestModbusTransact:
    def wired(self):
        sim, plant, sensor, plc = make_plc(init=16.4)
        plc.scan()
        master = sim.attach_host("gw", [("lan", "02:00:00:00:00:01",
                                         "10.0.0.1")])
        slave = sim.attach_host("plc", [("lan", "02:00:00:00:00:02",
                                         "10.0.0.2")])
        slave.bind_tcp(502, ModbusSlaveService(sim, plc.handle_modbus,
                                               service_time_us=1000))
        return sim, master, plc

    def test_write_coil_then_read_back_over_fabric(self):
        sim, master, plc = self.wired()
        got = []
        modbus_transact(master, "10.0.0.2",
                        fb.ModbusAdu(1, 1, fb.WRITE_SINGLE_COIL, 0,
                                     fb.COIL_ON), got.append)
        sim.run_until(1_000_000)
        assert got[0].count_or_value == fb.COIL_ON
        assert plc.coils[0] is True
        modbus_transact(master, "10.0.0.2",
                        fb.ModbusAdu(2, 1, fb.READ_HOLDING_REGISTERS,
                                     PLC_INPUT_REGISTER, 1), got.append)
        sim.run_until(2_000_000)
        assert got[1].data == (164,)
        assert got[1].transaction_id == 2
        # request/response pair is in the capture with matching ids
        tids = [f.payload[:2] for f in sim.capture
                if f.proto_tag == "MODBUS" and f.payload]
        assert tids.count(b"\x00\x02") == 2

    def test_unreachable_slave_reports_none(self):
        sim, master, plc = self.wired()
        unbind_tcp(sim.hosts["plc"], 502)
        got = []
        modbus_transact(master, "10.0.0.2",
                        fb.ModbusAdu(3, 1, fb.READ_HOLDING_REGISTERS,
                                     PLC_INPUT_REGISTER, 1), got.append)
        sim.run_until(5_000_000)
        assert got == [None]

    def test_silent_slave_times_out_once(self):
        sim, master, plc = self.wired()
        sim.hosts["plc"].bind_tcp(502, SilentSlave())
        got = []
        stream = modbus_transact(master, "10.0.0.2",
                                 fb.ModbusAdu(4, 1, fb.READ_HOLDING_REGISTERS,
                                              PLC_INPUT_REGISTER, 1),
                                 got.append)
        sim.run_until(10_000_000)
        assert got == [None]
        assert stream.state == "closed"


class TestActuator:
    def test_command_and_event_log(self):
        sim, plant = make_plant()
        plant.add_actuator("led1")
        act = plant.actuator_command("led1", "ON", "coap-client")
        assert act.state == "ON"
        act = plant.actuator_command("led1", "ON", "coap-client")
        assert act.state == "ON"
        assert len(plant.actuator_events) == 2   # idempotent but still logged
        assert plant.actuator_events[0][3] == "coap-client"

    def test_unknown_actuator(self):
        sim, plant = make_plant()
        with pytest.raises(KeyError):
            plant.actuator_command("nope", "ON", "test")

    def test_state_validated(self):
        sim, plant = make_plant()
        plant.add_actuator("led1")
        with pytest.raises(ValueError):
            plant.actuator_command("led1", "MAYBE", "test")
