fn main() {
    reis_bench::figures::asic_comparison().print();
}
