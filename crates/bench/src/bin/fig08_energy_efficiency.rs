fn main() {
    reis_bench::figures::fig08_energy_efficiency().print();
}
